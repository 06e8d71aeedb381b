"""Estimation-theoretic quantities of the prepare-then-encode protocol.

The protocol: a coherent probe evolves under a critical Hamiltonian H_c for
t_c (preparation), then under exp(−i θ t_θ H_θ) (encoding). Because the
commutator algebra of (H_c, H_θ) closes, the local generator of θ
translations has a closed form, and every Fisher-information quantity below
reduces to Gaussian moment arithmetic. All functions are pure; sweeps may
call them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .errors import CommutingPairError, NoSignChangeError, VacuumProbeError
from .gaussian import (
    GaussianState,
    coherent,
    evolve,
    mean_photon,
    quadrature_stats,
    variance_quadratic,
)
from .models import ModelParams
from .operators import (
    CriticalStructure,
    QuadraticOperator,
    derive_critical_structure,
    generator,
    preparation_weights,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One full protocol instance.

    theta0 is the working point at which local sensitivity is evaluated and
    omega the bosonic mode frequency entering the energy constraint (it
    cancels from the energy-matched comparison, so it is kept only for
    completeness).
    """

    Hc: QuadraticOperator
    Htheta: QuadraticOperator
    t_c: float
    t_theta: float
    alpha: complex
    theta0: float = 0.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        if self.t_c < 0.0 or self.t_theta < 0.0:
            raise ValueError("durations must be nonnegative")
        if self.t_c + self.t_theta <= 0.0:
            raise ValueError("total time must be positive")

    @property
    def total_time(self) -> float:
        return self.t_c + self.t_theta


def critical_structure(spec: ProtocolSpec) -> CriticalStructure | None:
    """Derived structure of the pair, or None when the pair commutes.

    A commuting pair (e.g. a free-rotation preparation with frequency
    encoding) is the degenerate protocol whose generator is just t_θ H_θ;
    callers treat None accordingly instead of failing.
    """
    try:
        return derive_critical_structure(spec.Hc, spec.Htheta)
    except CommutingPairError:
        return None


def protocol_generator(spec: ProtocolSpec) -> QuadraticOperator:
    """Local generator h of θ translations for the full protocol."""
    cs = critical_structure(spec)
    if cs is None:
        return spec.t_theta * spec.Htheta
    return generator(spec.Htheta, cs, spec.t_c, spec.t_theta)


def probe_state(spec: ProtocolSpec) -> GaussianState:
    return coherent(spec.alpha)


def prepared_state(spec: ProtocolSpec) -> GaussianState:
    """Probe after the critical preparation stage."""
    return evolve(probe_state(spec), spec.Hc, spec.t_c)


def protocol_state(spec: ProtocolSpec, theta: float | None = None) -> GaussianState:
    """Probe after preparation and encoding at parameter value theta."""
    theta = spec.theta0 if theta is None else theta
    return evolve(prepared_state(spec), spec.Htheta, theta * spec.t_theta)


def qfi_exact(spec: ProtocolSpec) -> float:
    """Exact quantum Fisher information 4 Var[h] in the initial probe.

    The generator already folds the preparation unitary into the encoding
    Hamiltonian, so the variance is taken in the bare coherent state.
    """
    h = protocol_generator(spec)
    return 4.0 * variance_quadratic(probe_state(spec), h)


def qfi_asymptotic(spec: ProtocolSpec) -> float:
    """Leading near-critical QFI 4 t_θ² [(cos(√Δ t_c) − 1)/Δ]² Var[D].

    This keeps only the double-commutator term of the generator; the gap to
    the exact value is reported by callers rather than asserted, since the
    neglected cross terms are only suppressed near the critical point.
    """
    cs = critical_structure(spec)
    if cs is None:
        return 0.0
    _, cos_weight = preparation_weights(cs.Delta, spec.t_c)
    var_d = variance_quadratic(probe_state(spec), cs.D)
    return 4.0 * spec.t_theta**2 * cos_weight**2 * var_d


def final_mean_photon(spec: ProtocolSpec) -> float:
    """Mean photon number of the fully evolved state at the working point."""
    return mean_photon(protocol_state(spec))


def direct_baseline(spec: ProtocolSpec) -> float:
    """QFI of the direct-encoding scheme under matched energy and total time.

    The reference probe is a coherent state carrying the same mean photon
    number as the protocol's final state, encoded for the whole duration
    T = t_c + t_θ, so the baseline is 4 T² Var[H_θ] in that reference state.
    For frequency encoding this is the familiar 4 T² |α₀|²; for pure
    displacement encoding the coherent-state variance is amplitude
    independent and the baseline reduces to 4 T² Var[H_θ]_vac.
    """
    nbar = max(final_mean_photon(spec), 0.0)
    reference = coherent(math.sqrt(nbar))
    return 4.0 * spec.total_time**2 * variance_quadratic(reference, spec.Htheta)


def enhancement_ratio(spec: ProtocolSpec) -> float:
    """qfi_exact / direct_baseline; > 1 means genuine resource-matched gain."""
    if abs(spec.alpha) < 1e-12:
        raise VacuumProbeError("enhancement ratio is undefined for a vacuum probe")
    return qfi_exact(spec) / direct_baseline(spec)


def skew_information(spec: ProtocolSpec) -> float:
    """Noncommutativity of the prepared state and the encoding Hamiltonian.

    For the pure prepared state the skew information is simply
    Var[H_θ] in that state, which equals qfi_exact/(4 t_θ²) identically;
    both sides are computed independently here and in qfi_exact, and the
    identity is enforced by the tests.
    """
    return variance_quadratic(prepared_state(spec), spec.Htheta)


def _richardson_derivative(f, x0: float, step: float) -> float:
    coarse = (f(x0 + step) - f(x0 - step)) / (2.0 * step)
    fine = (f(x0 + 0.5 * step) - f(x0 - 0.5 * step)) / step
    return (4.0 * fine - coarse) / 3.0


def cfi_homodyne(spec: ProtocolSpec, dtheta: float = 1e-4) -> float:
    """Classical Fisher information of homodyne detection of P.

    For a Gaussian outcome distribution,
    I(θ) = (∂_θ⟨P⟩)²/V + ½ (∂_θV)²/V² with V = Var P, both derivatives
    taken at the working point by Richardson-refined central differences.
    V is bounded away from zero by the uncertainty relation, so the formula
    never divides by zero on physical states.
    """
    if not (1e-6 <= dtheta <= 1e-2):
        raise ValueError("dtheta must lie in [1e-6, 1e-2]")

    def stats(theta: float) -> tuple[float, float]:
        return quadrature_stats(protocol_state(spec, theta))

    d_mean = _richardson_derivative(lambda th: stats(th)[0], spec.theta0, dtheta)
    d_var = _richardson_derivative(lambda th: stats(th)[1], spec.theta0, dtheta)
    var_p = stats(spec.theta0)[1]
    return d_mean**2 / var_p + 0.5 * d_var**2 / var_p**2


def qfi_displacement(spec: ProtocolSpec) -> float:
    """Near-critical QFI formula for momentum-displacement encoding.

    4 t_p² ω² sin²(√Δ_p t_c)/Δ_p · Var[P], with Var[P] in the initial probe
    (1/2 for any coherent state) and the sin²/Δ_p ratio evaluated
    series-safely. The exact value for the same spec is available through
    qfi_exact; the two coincide at √Δ_p t_c = π/2 where the dropped
    position-quadrature term vanishes.
    """
    if not _is_displacement_encoding(spec.Htheta):
        raise ValueError("displacement formula requires encoding (a† + a)/√2")
    cs = critical_structure(spec)
    if cs is None:
        return 0.0
    sin_weight, _ = preparation_weights(cs.Delta, spec.t_c)
    var_p = variance_quadratic(probe_state(spec), QuadraticOperator.momentum())
    return 4.0 * spec.t_theta**2 * spec.omega**2 * sin_weight**2 * var_p


def _is_displacement_encoding(op: QuadraticOperator) -> bool:
    scale = max(1.0, op.max_abs())
    quad = max(abs(op.c_n), abs(op.c_aa), abs(op.c_adad))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return (
        quad <= 1e-12 * scale
        and abs(op.c_a - inv_sqrt2) <= 1e-12 * scale
        and abs(op.c_ad - inv_sqrt2) <= 1e-12 * scale
    )


def find_threshold(
    family: str,
    t_theta: float,
    alpha: complex,
    bracket: tuple[float, float],
    omega: float = 1.0,
    gamma: float = 2.0,
    theta0: float = 0.0,
    tol: float = 1e-4,
) -> float:
    """Model parameter at which the enhancement ratio crosses 1.

    The preparation time is pinned to the critical time π/√Δ of the swept
    parameter. `family` is a model variant name; for the LMG family the
    swept parameter is λ at fixed γ, for the QRM families it is g.
    Bisection to absolute tolerance `tol`; raises NoSignChangeError when
    R − 1 has the same sign at both bracket ends.
    """

    def ratio_minus_one(value: float) -> float:
        if family == "LMG-frequency":
            params = ModelParams(variant=family, omega=omega, lam=value, gamma=gamma)
        else:
            params = ModelParams(variant=family, omega=omega, g=value)
        spec = ProtocolSpec(
            Hc=params.preparation(),
            Htheta=params.encoding(),
            t_c=params.critical_time(),
            t_theta=t_theta,
            alpha=alpha,
            theta0=theta0,
            omega=omega,
        )
        return enhancement_ratio(spec) - 1.0

    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = ratio_minus_one(lo)
    f_hi = ratio_minus_one(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NoSignChangeError(
            f"enhancement ratio − 1 has the same sign at both ends of {bracket}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = ratio_minus_one(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MetrologyReport:
    """Flat bundle of every figure of merit for one protocol instance."""

    qfi_exact: float
    qfi_asymptotic: float
    qfi_direct_baseline: float
    ratio: float
    skew: float
    cfi_homodyne: float
    meanP: float
    varP: float
    final_mean_photon: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_report(spec: ProtocolSpec, dtheta: float = 1e-4) -> MetrologyReport:
    """Compute the full metrology report for one protocol instance."""
    f_exact = qfi_exact(spec)
    mean_p, var_p = quadrature_stats(protocol_state(spec))
    return MetrologyReport(
        qfi_exact=f_exact,
        qfi_asymptotic=qfi_asymptotic(spec),
        qfi_direct_baseline=direct_baseline(spec),
        ratio=enhancement_ratio(spec),
        skew=skew_information(spec),
        cfi_homodyne=cfi_homodyne(spec, dtheta),
        meanP=mean_p,
        varP=var_p,
        final_mean_photon=final_mean_photon(spec),
    )
