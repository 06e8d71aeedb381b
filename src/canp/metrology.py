"""Estimation-theoretic quantities of the prepare-then-encode protocol.

The protocol: a coherent probe evolves under a critical Hamiltonian H_c for
t_c (preparation), then under exp(−i θ t_θ H_θ) (encoding). Because the
commutator algebra of (H_c, H_θ) closes, the local generator of θ
translations has a closed form, and every Fisher-information quantity below
reduces to Gaussian moment arithmetic. The homodyne CFI needs θ-derivatives
of the final moments, and those are exact as well (the encoding is a
Gaussian flow), so nothing here is a finite difference.

:class:`Protocol` is the metrology API: built once per (H_c, H_θ, α), its
methods evaluate whole arrays of (t_c, t_θ, θ0) in closed form, and
:func:`sweep` builds one per model value of a family. The functions taking a
:class:`ProtocolSpec` are one-point wrappers kept for the benchmark harness.
All functions are pure.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (CommutingPairError, NonFiniteError, NoSignChangeError, OutOfPhaseError,
                     VacuumProbeError)
from .gaussian import Flow, GaussianState, coherent, photon_number, quadratic_variance
from .models import ModelParams
from .operators import CriticalStructure, Quadratic, derive_critical_structure, flow_weights

_SQRT2 = math.sqrt(2.0)


class _SpecFields(NamedTuple):
    Hc: Quadratic
    Htheta: Quadratic
    t_c: float
    t_theta: float
    alpha: complex
    theta0: float = 0.0


class ProtocolSpec(_SpecFields):
    """One full protocol instance.

    theta0 is the working point at which local sensitivity is evaluated. The
    mode frequency enters only through H_c, so a spec holds no copy of it.
    An immutable named tuple that checks its durations however it is built,
    ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, Hc: Quadratic, Htheta: Quadratic, t_c: float, t_theta: float,
                alpha: complex, theta0: float = 0.0) -> "ProtocolSpec":
        _durations(t_c, t_theta)
        return super().__new__(cls, Hc, Htheta, t_c, t_theta, alpha, theta0)

    @classmethod
    def _make(cls, iterable) -> "ProtocolSpec":
        return cls(*iterable)


def _duration(t) -> np.ndarray:
    """A time as a float array; it must be nonnegative."""
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t < 0.0):
        raise ValueError("durations must be nonnegative")
    return t


def _durations(t_c, t_theta) -> tuple[np.ndarray, np.ndarray]:
    """Times as float arrays; each must be nonnegative and their sum positive."""
    t_c, t_theta = _duration(t_c), _duration(t_theta)
    if np.count_nonzero(t_c + t_theta <= 0.0):
        raise ValueError("total time must be positive")
    return t_c, t_theta


class Protocol:
    """The protocol of one (H_c, H_θ, α), evaluated on arrays of times.

    Every method broadcasts its time arguments against each other (numpy
    rules) and returns arrays of the broadcast shape, so one call evaluates a
    whole grid: pass t_c of shape (n, 1) and t_θ of shape (1, m) for an n×m
    grid. The probe and the flows of H_c and H_θ are built with the protocol;
    only the critical structure is derived on first use, so a pair without
    one still has states. A state is one :class:`canp.gaussian.GaussianState`
    whose fields have that shape.

    Each public method checks its times once (each nonnegative, their sum
    positive) and then calls the private kernels (``_qfi``,
    ``_qfi_asymptotic``, ``_prepared``, ``_state``, ``_baseline``,
    ``_cfi_homodyne``), which take the checked float arrays.

    The closed forms: the generator is h = t_θ (H_θ + s C + c D) with
    s = sin(√Δ t_c)/√Δ and c = (cos(√Δ t_c) − 1)/Δ (from
    :func:`canp.operators.flow_weights`), so QFI = 4 t_θ² Var[H_θ + sC + cD]
    in the probe; a commuting pair (no critical structure) has h = t_θ H_θ.
    H_θ + sC + cD is one :class:`canp.operators.Quadratic` whose entries are
    arrays over the grid. States follow from :class:`canp.gaussian.Flow`.
    """

    def __init__(self, hc: Quadratic, htheta: Quadratic, alpha: complex):
        self.hc = hc
        self.htheta = htheta
        self.alpha = complex(alpha)
        self.probe = coherent(self.alpha)
        self.preparation = Flow(hc)
        self.encoding = Flow(htheta)

    @cached_property
    def structure(self) -> CriticalStructure | None:
        """Derived structure of the pair, or None when the pair commutes.

        A commuting pair (e.g. a free-rotation preparation with frequency
        encoding) is the degenerate protocol whose generator is just t_θ H_θ;
        callers treat None accordingly instead of failing.
        """
        try:
            return derive_critical_structure(self.hc, self.htheta)
        except CommutingPairError:
            return None

    @cached_property
    def _generator_terms(self) -> tuple[float, Quadratic, Quadratic]:
        """Δ, C and D.

        A commuting pair gets Δ = 0 and zero C and D, so its generator is
        exactly t_θ H_θ.
        """
        cs = self.structure
        if cs is None:
            return 0.0, Quadratic(), Quadratic()
        return cs.Delta, cs.C, cs.D

    def preparation_time(self, sqrt_delta_tc):
        """Preparation time(s) t_c = (√Δ·t_c)/√Δ from the derived Δ, over arrays.

        This is the package's one conversion of √Δ·t_c (π marks the critical
        time) to a duration. Raises CommutingPairError for a commuting pair
        and OutOfPhaseError for Δ = 0: neither has a √Δ.
        """
        cs = self.structure
        if cs is None:
            raise CommutingPairError(
                "the pair commutes ([H_c, H_theta] = 0), so there is no √Δ to place t_c by")
        if cs.Delta <= 0.0:
            raise OutOfPhaseError("Δ = 0, so there is no √Δ to place t_c by")
        return sqrt_delta_tc / math.sqrt(cs.Delta)

    # --- states ----------------------------------------------------------

    def prepared(self, t_c) -> GaussianState:
        """The probe after the preparation stage; t_c must be nonnegative."""
        return self._prepared(_duration(t_c))

    def _prepared(self, t_c) -> GaussianState:
        return self.preparation.apply(self.probe, t_c)

    def state(self, t_c, t_theta, theta) -> GaussianState:
        """The probe after preparation and encoding at parameter value theta."""
        return self._state(*_durations(t_c, t_theta), theta)

    def _state(self, t_c, t_theta, theta) -> GaussianState:
        return self.encoding.apply(self._prepared(t_c), theta * t_theta)

    # --- figures of merit ------------------------------------------------

    def qfi(self, t_c, t_theta) -> np.ndarray:
        """Exact quantum Fisher information 4 Var[h] in the initial probe.

        The generator already folds the preparation unitary into the encoding
        Hamiltonian, so the variance is taken in the bare coherent state.
        """
        return self._qfi(*_durations(t_c, t_theta))

    def _qfi(self, t_c, t_theta) -> np.ndarray:
        delta, f_c, f_d = self._generator_terms
        _, s, q = flow_weights(delta, t_c)  # preparation weights (s, c) = (s, −q)
        h = Quadratic._make(th + s * c - q * d for th, c, d in zip(self.htheta, f_c, f_d))
        return 4.0 * (t_theta * t_theta) * quadratic_variance(h, self.probe)

    def qfi_asymptotic(self, t_c, t_theta) -> np.ndarray:
        """Leading near-critical QFI 4 t_θ² [(cos(√Δ t_c) − 1)/Δ]² Var[D].

        This keeps only the double-commutator term of the generator; the gap
        to the exact value is reported by callers rather than asserted, since
        the neglected cross terms are only suppressed near the critical
        point. A commuting pair has D = 0 and so gives 0.
        """
        return self._qfi_asymptotic(*_durations(t_c, t_theta))

    def _qfi_asymptotic(self, t_c, t_theta) -> np.ndarray:
        delta, _, f_d = self._generator_terms
        _, _, q = flow_weights(delta, t_c)  # the cosine weight is −q
        return 4.0 * (t_theta * t_theta) * (q * q) * quadratic_variance(f_d, self.probe)

    def direct_baseline(self, t_c, t_theta, theta0) -> np.ndarray:
        """QFI of the direct-encoding scheme under matched energy and total time.

        The reference probe is a coherent state carrying the same mean photon
        number as the protocol's final state, encoded for the whole duration
        T = t_c + t_θ, so the baseline is 4 T² Var[H_θ] in that reference
        state. For frequency encoding this is the familiar 4 T² |α₀|²; for
        pure displacement encoding the coherent-state variance is amplitude
        independent and the baseline reduces to 4 T² Var[H_θ]_vac.
        """
        t_c, t_theta = _durations(t_c, t_theta)
        return self._baseline(t_c, t_theta, self._state(t_c, t_theta, theta0))

    def _baseline(self, t_c, t_theta, final: GaussianState) -> np.ndarray:
        """The direct baseline matched to final, the state after t_c and t_theta."""
        nbar = np.maximum(photon_number(final), 0.0)
        reference = GaussianState(_SQRT2 * np.sqrt(nbar), 0.0, 0.5, 0.0, 0.5)
        total = t_c + t_theta
        return 4.0 * (total * total) * quadratic_variance(self.htheta, reference)

    def ratio(self, t_c, t_theta, theta0) -> np.ndarray:
        """qfi / direct_baseline; > 1 means genuine resource-matched gain."""
        self._require_bright_probe()
        t_c, t_theta = _durations(t_c, t_theta)
        return self._qfi(t_c, t_theta) / self._baseline(t_c, t_theta,
                                                        self._state(t_c, t_theta, theta0))

    def _require_bright_probe(self) -> None:
        if abs(self.alpha) < 1e-12:
            raise VacuumProbeError("enhancement ratio is undefined for a vacuum probe")

    def skew(self, t_c) -> np.ndarray:
        """Skew information of the prepared state and H_θ.

        For the pure prepared state it is Var[H_θ] in that state, which
        equals qfi/(4 t_θ²) identically; the two are computed by independent
        routes and the tests enforce the identity.
        """
        return quadratic_variance(self.htheta, self.prepared(t_c))

    def cfi_homodyne(self, t_c, t_theta, theta0) -> np.ndarray:
        """Classical Fisher information of homodyne detection of P.

        For a Gaussian outcome distribution,
        I(θ) = (∂_θ⟨P⟩)²/V + ½ (∂_θV)²/V² with V = Var P. The derivatives
        are exact: θ moves the final moments along the flow of H_θ, so with
        M = ΩG_θ and u = Ωv_θ, ∂_θμ = t_θ(Mμ + u) and ∂_θσ = t_θ(Mσ + σMᵀ).
        V is bounded away from zero by the uncertainty relation, so the
        formula never divides by zero on physical states.
        """
        t_c, t_theta = _durations(t_c, t_theta)
        return self._cfi_homodyne(self._state(t_c, t_theta, theta0), t_theta)

    def _cfi_homodyne(self, m: GaussianState, t_theta) -> np.ndarray:
        """Homodyne CFI of the final state m of an encoding of duration t_theta."""
        _, _, m10, m11 = self.encoding.m  # the P row of M
        d_mean = t_theta * (m10 * m.mx + m11 * m.mp + self.encoding.u[1])
        d_var = 2.0 * t_theta * (m10 * m.sxp + m11 * m.spp)
        return d_mean * d_mean / m.spp + 0.5 * (d_var * d_var) / (m.spp * m.spp)

    def qfi_displacement(self, t_c, t_theta) -> np.ndarray:
        """Single-commutator QFI 4 t_θ² [sin(√Δ t_c)/√Δ]² Var[C], for any pair.

        This keeps only the C term of the generator, as :meth:`qfi_asymptotic`
        keeps only the D term; s = sin(√Δ t_c)/√Δ is evaluated series-safely
        and Var[C] is taken in the probe. For the QRM displacement pair
        (encoding (a† + a)/√2) C = ωP, so this is the published formula
        4 t_θ² ω² sin²(√Δ t_c)/Δ · Var[P], which coincides with :meth:`qfi`
        at √Δ t_c = π/2, where the dropped position-quadrature term vanishes.
        A commuting pair has C = 0 and so gives 0.
        """
        t_c, t_theta = _durations(t_c, t_theta)
        delta, f_c, _ = self._generator_terms
        _, s, _ = flow_weights(delta, t_c)
        return 4.0 * (t_theta * t_theta) * (s * s) * quadratic_variance(f_c, self.probe)


def sweep(models: list[ModelParams], alpha: complex, sqrt_delta_tc, columns) -> dict:
    """The columns of a sweep over model values, each stacked model values first.

    One Protocol per model value, with probe alpha and t_c placed at √Δ·t_c;
    columns(protocol, t_c) returns its named column values. A commuting pair's
    CommutingPairError is raised again naming the model value, and an empty
    list of model values is a ValueError."""
    if not models:
        raise ValueError("a sweep needs at least one model value")
    rows = []
    for params in models:
        protocol = Protocol(*params.pair(), alpha)
        try:
            t_c = protocol.preparation_time(sqrt_delta_tc)
        except CommutingPairError as exc:
            value = ", ".join(f"{k}={v}" for k, v in params.to_dict().items())
            raise CommutingPairError(f"model {value}: {exc}") from exc
        rows.append(columns(protocol, t_c))
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


# --- one-point ProtocolSpec wrappers, kept for the benchmark harness -------


def protocol_state(spec: ProtocolSpec, theta: float | None = None) -> GaussianState:
    """Probe after preparation and encoding at parameter value theta."""
    theta = spec.theta0 if theta is None else theta
    return Protocol(spec.Hc, spec.Htheta, spec.alpha).state(spec.t_c, spec.t_theta, theta)


def enhancement_ratio(spec: ProtocolSpec) -> float:
    """Resource-matched enhancement ratio; see :meth:`Protocol.ratio`."""
    protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
    return float(protocol.ratio(spec.t_c, spec.t_theta, spec.theta0))


def cfi_homodyne(spec: ProtocolSpec) -> float:
    """Homodyne (P) classical Fisher information; see :meth:`Protocol.cfi_homodyne`."""
    protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
    return float(protocol.cfi_homodyne(spec.t_c, spec.t_theta, spec.theta0))


def _opposite_signs(a: float, b: float) -> bool:
    """Whether a and b have strictly opposite signs (0 and nan have none), read
    without their product, which underflows to ±0 when both are tiny."""
    return (a < 0.0 and b > 0.0) or (a > 0.0 and b < 0.0)


def _refine(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The sign change of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi) of opposite signs.

    Illinois regula falsi (Dowell and Jarratt, BIT 11, 168, 1971): the secant point of the
    ends' weights, an end's value halved each time a step keeps that end twice in a row
    (signs come from the values). The midpoint replaces a secant point not strictly inside
    the bracket, or any point while the bracket after n steps is wider than 2^(1 − n/2) of
    its start. Returns a point where f is 0, or the midpoint once the ends are adjacent floats.
    """
    w_lo, w_hi, kept, budget = f_lo, f_hi, None, 2.0 * (hi - lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        x = lo + (hi - lo) * (w_lo / (w_lo - w_hi))
        if not lo < x < hi or hi - lo > budget:
            x = mid
        f_x, budget = f(x), budget / _SQRT2
        if f_x == 0.0:
            return x
        if _opposite_signs(f_lo, f_x):
            hi, w_hi, w_lo, kept = x, f_x, w_lo * (0.5 if kept == "lo" else 1.0), "lo"
        else:
            lo, f_lo, w_lo, w_hi, kept = x, f_x, f_x, w_hi * (0.5 if kept == "hi" else 1.0), "hi"


def zero_crossings(f, grid, values) -> list[float]:
    """The sign changes of f over a grid, in grid order, given f's values on it.

    A grid point where f is exactly 0 is a crossing; between neighbours of
    opposite signs, :func:`_refine` ends one where f is 0 or on adjacent
    floats, given the two ends in increasing order whichever way the grid
    runs. A nan value has no sign, so no crossing is read next to it.
    """
    grid, values = [float(x) for x in grid], [float(v) for v in values]
    crossings = []
    for x, y, f_x, f_y in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if f_x == 0.0:
            crossings.append(x)
        elif _opposite_signs(f_x, f_y):
            (lo, f_lo), (hi, f_hi) = sorted(((x, f_x), (y, f_y)))
            crossings.append(_refine(f, lo, hi, f_lo, f_hi))
    if values and values[-1] == 0.0:
        crossings.append(grid[-1])
    return crossings


def find_threshold(
    family: str,
    t_theta: float,
    alpha: complex,
    bracket: tuple[float, float],
    omega: float = 1.0,
    gamma: float = 2.0,
    theta0: float = 0.0,
) -> float:
    """Model parameter at which the enhancement ratio crosses 1.

    The preparation time is pinned to the critical time π/√Δ of each value.
    `family` is a model variant name; for the LMG family the swept parameter
    is λ at fixed γ, for the QRM families it is g. Returns the first of the
    bracket's :func:`zero_crossings`. Near the threshold R − 1 changes sign
    at rounding level more than once (LMG at γ = 2, t_θ = 1.3: roots about
    6e-15 apart), so the value is one of these roots, picked by the search
    path, and exact only to R's own rounding. Raises ValueError unless
    bracket[0] < bracket[1], OutOfPhaseError before any R is read when an end
    or a phase boundary (λ = 1, λ = γ) inside the bracket is out of phase,
    NonFiniteError when R − 1 is nan or inf at an end, NoSignChangeError
    when it has one sign at both, and :func:`sweep`'s CommutingPairError
    naming the bracket end when the pair commutes (LMG at γ = 1).
    """

    def model(value: float) -> ModelParams:
        moved = {"lam": value, "gamma": gamma} if family == "LMG-frequency" else {"g": value}
        return ModelParams(family, omega=omega, **moved)

    def ratio_minus_one(value: float) -> float:
        swept = sweep([model(value)], alpha, math.pi,
                      lambda p, t_c: {"R": p.ratio(t_c, t_theta, theta0)})
        return float(swept["R"][0]) - 1.0

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket {bracket} must have lo < hi")
    # Each end, and each phase boundary strictly inside (a QRM bracket with both
    # ends in phase has none), must be in the normal phase, whichever points the
    # search visits: preparation() raises OutOfPhaseError where it is not.
    boundaries = sorted((1.0, gamma)) if family == "LMG-frequency" else ()
    for value in (lo, hi, *(b for b in boundaries if lo < b < hi)):
        model(value).preparation()
    ends = [ratio_minus_one(lo), ratio_minus_one(hi)]
    if not all(map(math.isfinite, ends)):
        raise NonFiniteError(f"enhancement ratio − 1 is nan or inf at an end of {bracket}: "
                             f"{ends[0]!r} at {lo!r}, {ends[1]!r} at {hi!r}")
    crossings = zero_crossings(ratio_minus_one, (lo, hi), ends)
    if not crossings:
        raise NoSignChangeError(
            f"enhancement ratio − 1 has the same sign at both ends of {bracket}"
        )
    return crossings[0]


class MetrologyReport(NamedTuple):
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


def evaluate_report(spec: ProtocolSpec) -> MetrologyReport:
    """The full metrology report of one protocol instance, from one :class:`Protocol`.

    The times are checked once and the final state is built once; each field
    is the value the matching public method gives.
    """
    protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
    protocol._require_bright_probe()
    t_c, t_theta = _durations(spec.t_c, spec.t_theta)
    final = protocol._state(t_c, t_theta, spec.theta0)
    qfi = protocol._qfi(t_c, t_theta)
    baseline = protocol._baseline(t_c, t_theta, final)
    return MetrologyReport(
        qfi_exact=float(qfi),
        qfi_asymptotic=float(protocol._qfi_asymptotic(t_c, t_theta)),
        qfi_direct_baseline=float(baseline),
        ratio=float(qfi / baseline),
        skew=float(quadratic_variance(protocol.htheta, protocol._prepared(t_c))),
        cfi_homodyne=float(protocol._cfi_homodyne(final, t_theta)),
        meanP=float(final.mp),
        varP=float(final.spp),
        final_mean_photon=float(photon_number(final)),
    )
