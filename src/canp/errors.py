"""Exception hierarchy shared across the package.

The class decides the command line's exit code: a ConfigError, subclasses
included, exits 2 and every other CanpError exits 1. The subclasses are the
inputs CANP's gain cannot be read from; the rest are run failures.
"""


class CanpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CanpError):
    """Run configuration is malformed or inconsistent."""


class CommutingPairError(ConfigError):
    """[H_c, H_theta] = 0: C, the whole effect, is zero, with no √Δ to place t_c by."""


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


class VacuumProbeError(ConfigError):
    """A vacuum probe, |alpha| < 1e-12: its enhancement ratio and ⟨P⟩ sign are undefined."""


class NoSignChangeError(ConfigError):
    """R − 1 has one sign at both ends of a threshold bracket: no threshold inside."""


class OutOfPhaseError(ConfigError):
    """Model parameters lie outside the normal-phase validity range."""
