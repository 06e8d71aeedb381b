"""Exception hierarchy shared across the package."""


class CanpError(Exception):
    """Base class for all package-specific errors."""


class CommutingPairError(CanpError):
    """[H_c, H_theta] = 0: the critical structure is zero, with no √Δ to place t_c by."""


class ConditionViolatedError(CanpError):
    """The triple-commutator proportionality fails beyond tolerance."""


class NegativeDeltaError(CanpError):
    """The pair closes with Δ < 0: det G_c < 0, a hyperbolic H_c, so no real gap."""


class NonFiniteError(CanpError):
    """A derived quantity is nan or infinite, e.g. after a float overflow."""


class TruncationNotConvergedError(CanpError):
    """Number-basis tail mass exceeds tolerance; `pending` indexes the times concerned."""

    def __init__(self, message: str, pending: list[int] | tuple = ()) -> None:
        super().__init__(message)
        self.pending = pending


class NotPositiveError(CanpError):
    """Matrix expected to be a density operator is not positive / trace one."""


class VacuumProbeError(CanpError):
    """Enhancement ratio is undefined for a vacuum probe."""


class NoSignChangeError(CanpError):
    """Root bracketing failed: no sign change over the given interval."""


class OutOfPhaseError(CanpError):
    """Model parameters lie outside the normal-phase validity range."""


class ConfigError(CanpError):
    """Run configuration is malformed or inconsistent."""
