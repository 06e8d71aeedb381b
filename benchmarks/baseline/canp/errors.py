"""Exception hierarchy shared across the package."""


class CanpError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(CanpError):
    """Operation requires a Hermitian operator and the input is not."""


class CommutingPairError(CanpError):
    """[H_c, H_theta] = 0, so the critical structure is degenerate."""


class ConditionViolatedError(CanpError):
    """The triple-commutator proportionality fails beyond tolerance."""


class NegativeDeltaError(CanpError):
    """Proportionality holds but the constant is negative (no real gap)."""


class TruncationNotConvergedError(CanpError):
    """Number-basis tail mass exceeds tolerance; results untrustworthy."""


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
