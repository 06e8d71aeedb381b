"""Criticality-assisted noncommutative preparation (CANP) metrology toolkit.

A probe prepared by evolution under a critical quadratic Hamiltonian and
then encoded by a noncommuting generator picks up a large parameter
sensitivity. This package provides the complete desk-scale toolchain for
that protocol: exact symbolic algebra of quadratic bosonic operators,
Gaussian-state symplectic dynamics, a truncated number-basis oracle, the
Fisher-information and skew-information estimators, preset critical models,
and a CLI that sweeps them into figure data and validation reports.
"""

from ._version import __version__
from .errors import (
    CanpError,
    CommutingPairError,
    ConditionViolatedError,
    ConfigError,
    NegativeDeltaError,
    NoSignChangeError,
    NotHermitianError,
    NotPositiveError,
    OutOfPhaseError,
    TruncationNotConvergedError,
    VacuumProbeError,
)
from .operators import (
    CriticalStructure,
    QuadraticOperator,
    commutator,
    derive_critical_structure,
    from_quadrature_form,
    generator,
    preparation_weights,
    to_quadrature_form,
)
from .gaussian import (
    GaussianState,
    coherent,
    covariance_quadratic,
    evolution_map,
    evolve,
    expectation,
    mean_photon,
    quadrature_stats,
    vacuum,
    variance_quadratic,
)
from .fock import (
    FockState,
    build_matrix,
    coherent_fock,
    evolve_fock,
    qfi_numeric,
    skew_information_general,
)
from .models import (
    ModelParams,
    encoding_displacement,
    encoding_frequency,
    lmg_effective,
    qrm_effective,
)
from .metrology import (
    MetrologyReport,
    ProtocolSpec,
    cfi_homodyne,
    direct_baseline,
    enhancement_ratio,
    evaluate_report,
    final_mean_photon,
    find_threshold,
    qfi_asymptotic,
    qfi_displacement,
    qfi_exact,
    skew_information,
)

__all__ = [name for name in dir() if not name.startswith("_")]
