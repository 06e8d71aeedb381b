"""Estimation-theoretic quantities of the prepare-then-encode protocol.

The protocol: a coherent probe evolves under a critical Hamiltonian H_c for
t_c (preparation), then under exp(−i θ t_θ H_θ) (encoding). Because the
commutator algebra of (H_c, H_θ) closes, the local generator of θ
translations has a closed form, and every Fisher-information quantity below
reduces to Gaussian moment arithmetic. The homodyne CFI needs θ-derivatives
of the final moments, and those are exact as well (the encoding is a
Gaussian flow), so nothing here is a finite difference.

:class:`Protocol` is the metrology API: built once per (H_c, H_θ, α), its
methods evaluate whole arrays of (t_c, t_θ, θ0) in closed form, and :func:`sweep`
builds one for a family, its model values on a leading axis. The functions taking
a :class:`ProtocolSpec` are one-point wrappers kept for the benchmark harness.
All functions are pure.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (CommutingPairError, NonFiniteError, NoSignChangeError, OutOfPhaseError,
                     VacuumProbeError)
from .gaussian import (Flow, GaussianState, coherent, photon_number, quadratic_covariance,
                       quadratic_variance)
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
    grid. The forms' entries may be arrays too, one pair per element, which
    broadcast with the times (:func:`sweep` stacks model values this way).
    The probe and the flows of H_c and H_θ are built with the protocol;
    the critical structure is derived on first use. A state is one
    :class:`canp.gaussian.GaussianState` whose fields have that shape.

    Each public method checks its times once (each nonnegative, their sum
    positive) and then calls the private kernels (``_qfi``,
    ``_qfi_asymptotic``, ``_prepared``, ``_state``, ``_baseline``,
    ``_cfi_homodyne``), which take the checked float arrays.

    The closed forms: the generator is h = t_θ (H_θ + s C − q D) with
    s = sin(√Δ t_c)/√Δ and q = (1 − cos(√Δ t_c))/Δ (from
    :func:`canp.operators.flow_weights`), so QFI = 4 t_θ² wᵀΣw, w = (1, s, −q),
    in the :attr:`covariance` Σ of (H_θ, C, D). A commuting pair has the zero
    structure (C = D = 0, Δ = 0), so h = t_θ H_θ. States, the skew and the
    baseline follow from :class:`canp.gaussian.Flow`.
    """

    def __init__(self, hc: Quadratic, htheta: Quadratic, alpha: complex):
        self.hc = hc
        self.htheta = htheta
        self.alpha = complex(alpha)
        self.probe = coherent(self.alpha)
        self.preparation = Flow(hc)
        self.encoding = Flow(htheta)

    @cached_property
    def structure(self) -> CriticalStructure:
        """Derived structure of the pair; a commuting pair's is the zero one.

        A commuting pair (e.g. a free-rotation preparation with frequency
        encoding) has C = D = 0 and Δ = 0, so its generator is just t_θ H_θ.
        Array entries (:func:`sweep`'s model values) are derived one element
        at a time, and each field is stacked in their broadcast shape.
        """
        forms = (*self.hc, *self.htheta)
        if np.ndarray not in map(type, forms):
            return derive_critical_structure(self.hc, self.htheta)
        entries = np.broadcast_arrays(*forms)
        derived = [derive_critical_structure(Quadratic(*pair[:6]), Quadratic(*pair[6:]))
                   for pair in zip(*(a.ravel().tolist() for a in entries))]
        shape = entries[0].shape
        fields = np.array([(*cs.C, *cs.D, *cs[2:]) for cs in derived]).T.reshape(-1, *shape)
        return CriticalStructure(Quadratic(*fields[:6]), Quadratic(*fields[6:12]), *fields[12:])

    @cached_property
    def covariance(self) -> tuple[float, ...]:
        """(Σ_θθ, Σ_θC, Σ_θD, Σ_CC, Σ_CD, Σ_DD), the covariances of H_θ, C and D in the probe.

        Every QFI is a quadratic form in these six; a commuting pair has only Σ_θθ ≠ 0.
        """
        th, c, d = self.htheta, *self.structure[:2]
        pairs = ((th, th), (th, c), (th, d), (c, c), (c, d), (d, d))
        return tuple(quadratic_covariance(a, b, self.probe) for a, b in pairs)

    def _commuting(self):
        """Whether the pair commutes (C all zero), in the shape of the structure."""
        return ~np.logical_or.reduce(self.structure.C)

    def preparation_time(self, sqrt_delta_tc):
        """Preparation time(s) t_c = (√Δ·t_c)/√Δ from the derived Δ, over arrays.

        This is the package's one conversion of √Δ·t_c (π marks the critical
        time) to a duration. Raises CommutingPairError for a commuting pair
        (C all zero) and OutOfPhaseError for any other Δ = 0: neither has a √Δ.
        """
        delta = self.structure.Delta
        if np.count_nonzero(delta <= 0.0):  # a commuting pair's Δ is 0 too
            if np.count_nonzero(self._commuting()):
                raise CommutingPairError(
                    "the pair commutes ([H_c, H_theta] = 0), so there is no √Δ to place t_c by")
            raise OutOfPhaseError("Δ = 0, so there is no √Δ to place t_c by")
        return sqrt_delta_tc / np.sqrt(delta)

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
        """Exact quantum Fisher information 4 Var[h] = 4 t_θ² wᵀΣw in the initial probe.

        The generator already folds the preparation unitary into the encoding
        Hamiltonian, so the variance is taken in the bare coherent state.
        """
        return self._qfi(*_durations(t_c, t_theta))

    def _qfi(self, t_c, t_theta) -> np.ndarray:
        s_tt, s_tc, s_td, s_cc, s_cd, s_dd = self.covariance
        _, s, q = flow_weights(self.structure.Delta, t_c)
        quad = s_tt + s * (2.0 * s_tc + s * s_cc) - q * (2.0 * (s_td + s * s_cd) - q * s_dd)
        return 4.0 * (t_theta * t_theta) * quad

    def qfi_asymptotic(self, t_c, t_theta) -> np.ndarray:
        """Leading near-critical QFI 4 t_θ² [(cos(√Δ t_c) − 1)/Δ]² Var[D].

        This keeps only the double-commutator term of the generator; the gap
        to the exact value is reported by callers rather than asserted, since
        the neglected cross terms are only suppressed near the critical
        point. A commuting pair has D = 0 and so gives 0.
        """
        return self._qfi_asymptotic(*_durations(t_c, t_theta))

    def _qfi_asymptotic(self, t_c, t_theta) -> np.ndarray:
        _, _, q = flow_weights(self.structure.Delta, t_c)  # the cosine weight is −q
        return 4.0 * (t_theta * t_theta) * (q * q) * self.covariance[5]

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
        reference = coherent(np.sqrt(nbar))
        total = t_c + t_theta
        return 4.0 * (total * total) * quadratic_variance(self.htheta, reference)

    def ratio(self, t_c, t_theta, theta0) -> np.ndarray:
        """qfi / direct_baseline; > 1 means genuine resource-matched gain."""
        self._require_bright_probe()
        t_c, t_theta = _durations(t_c, t_theta)
        return self._qfi(t_c, t_theta) / self._baseline(t_c, t_theta,
                                                        self._state(t_c, t_theta, theta0))

    def _require_bright_probe(self) -> None:
        require_bright_probe(self.alpha, "enhancement ratio is undefined for a vacuum probe")

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
        _, s, _ = flow_weights(self.structure.Delta, t_c)
        return 4.0 * (t_theta * t_theta) * (s * s) * self.covariance[3]


def require_bright_probe(alpha: complex, consequence: str) -> None:
    """Refuse a vacuum probe, |alpha| < 1e-12, naming alpha and what it leaves unreadable."""
    if abs(alpha) < 1e-12:
        raise VacuumProbeError(f"alpha={alpha}: {consequence}")


def sweep(models: list[ModelParams], alpha: complex, sqrt_delta_tc, columns) -> dict:
    """The columns of a sweep over model values, each stacked model values first.

    One Protocol, with probe alpha, holds every value's pair: each entry is an
    array of shape (k,) + (1,)·ndim(√Δ·t_c), the model value first, or a float
    for a single value. t_c is placed at √Δ·t_c, and columns(protocol, t_c)
    returns the named columns of the whole sweep at once; axes of their own
    (fig2a's t_θ) must trail the phase's. A commuting pair's
    CommutingPairError is raised again naming the model value, and an empty
    list of model values is a ValueError."""
    if not models:
        raise ValueError("a sweep needs at least one model value")
    pairs = [params.pair() for params in models]
    if len(models) > 1:
        shape = (len(models),) + (1,) * np.ndim(sqrt_delta_tc)
        pairs = [[Quadratic(*np.array(forms).T.reshape(-1, *shape)) for forms in zip(*pairs)]]
    protocol = Protocol(*pairs[0], alpha)
    try:
        t_c = protocol.preparation_time(sqrt_delta_tc)
    except CommutingPairError as exc:
        params = models[np.flatnonzero(protocol._commuting())[0]]
        value = ", ".join(f"{k}={v}" for k, v in params.to_dict().items())
        raise CommutingPairError(f"model {value}: {exc}") from exc
    table = columns(protocol, t_c)
    if len(models) == 1:  # the floats' columns get the model axis
        return {name: np.asarray(v)[None] for name, v in table.items()}
    return {name: np.broadcast_to(v, np.broadcast_shapes(shape, np.shape(v)))
            for name, v in table.items()}


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
    bracket[0] < bracket[1], OutOfPhaseError naming the bracket before any R
    is read when an end or a phase boundary (λ = 1, λ = γ) inside it is out
    of phase, NonFiniteError when R − 1 is nan or inf at an end,
    NoSignChangeError when it has one sign at both, and :func:`sweep`'s
    CommutingPairError naming the bracket end when the pair commutes (LMG
    at γ = 1).
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
        try:
            model(value).preparation()
        except OutOfPhaseError as exc:
            raise OutOfPhaseError(f"bracket {bracket} leaves the normal phase: {exc}") from exc
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
        skew=float(protocol.skew(t_c)),
        cfi_homodyne=float(protocol._cfi_homodyne(final, t_theta)),
        meanP=float(final.mp),
        varP=float(final.spp),
        final_mean_photon=float(photon_number(final)),
    )
