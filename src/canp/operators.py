"""Exact algebra of single-mode quadratic bosonic operators.

Every operator handled by this package lives in the six-dimensional complex
Lie algebra spanned by {a†a, a², a†², a, a†, 1}. Commutators follow from
[a, a†] = 1 and close on the same span, so all manipulations here are exact
coefficient arithmetic with no truncation. Cubic or higher terms are
unrepresentable by construction.

An operator is a :class:`QuadraticOperator`, a named tuple of its six
scalar coefficients, and every function here is plain Python arithmetic on
those scalars: the runtime derives the critical structure of each model
value it touches, so per-call cost is what matters. numpy enters only for
the two dot products of the Δ fit and for the flow weights over time arrays.

Quadrature convention used throughout: X = (a + a†)/√2, P = i(a† − a)/√2,
so [X, P] = i and the vacuum has Var X = Var P = 1/2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CommutingPairError,
    ConditionViolatedError,
    NegativeDeltaError,
    NonFiniteError,
    NotHermitianError,
)

# Coefficient tolerance for Hermiticity and algebra checks (double-precision
# headroom over exact-rational truth).
HERMITIAN_TOL = 1e-12
# Maximum admissible relative residual of the triple-commutator check.
RESIDUAL_MAX = 1e-8
# Below this value of |k t²| the weights of flow_weights are evaluated by
# Taylor series so the k -> 0 limit is smooth.
SERIES_SWITCH = 1e-6

_SQRT2 = math.sqrt(2.0)


class QuadraticOperator(NamedTuple):
    """c_n a†a + c_aa a² + c_adad a†² + c_a a + c_ad a† + c_1.

    A tuple of its six scalar coefficients, so equal operators compare and
    hash equal and building one costs no more than a tuple. The arithmetic
    operators are the algebra's, never tuple concatenation or repetition,
    and numpy scalars defer to them (``__array_ufunc__ = None``).
    """

    c_n: complex = 0j
    c_aa: complex = 0j
    c_adad: complex = 0j
    c_a: complex = 0j
    c_ad: complex = 0j
    c_1: complex = 0j

    __array_ufunc__ = None

    def coeffs(self) -> tuple[complex, complex, complex, complex, complex, complex]:
        """The six coefficients as Python complex numbers."""
        return tuple(map(complex, self))

    def max_abs(self) -> float:
        """Largest coefficient magnitude (natural scale of the operator)."""
        return max(map(abs, self))

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return QuadraticOperator._make(map(operator.add, self, other))

    def __sub__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "QuadraticOperator":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "QuadraticOperator":
        s = complex(scalar)
        return QuadraticOperator._make(s * complex(c) for c in self)

    __rmul__ = __mul__

    def is_hermitian(self) -> bool:
        """True iff c_n, c_1 real, c_adad = conj(c_aa), c_ad = conj(c_a).

        HERMITIAN_TOL is scaled by the operator's coefficient magnitude so
        large operators are judged on the same relative footing.
        """
        c_n, c_aa, c_adad, c_a, c_ad, c_1 = self
        gap_aa, gap_a = c_adad - c_aa.conjugate(), c_ad - c_a.conjugate()
        # Exact relations pass without the magnitude scan. The gaps, not
        # c_adad == conj(c_aa), so that inf − inf = nan still fails.
        if c_n.imag == 0.0 and c_1.imag == 0.0 and gap_aa == 0.0 and gap_a == 0.0:
            return True
        tol = HERMITIAN_TOL * max(1.0, self.max_abs())
        return (
            abs(c_n.imag) <= tol
            and abs(c_1.imag) <= tol
            and abs(gap_aa) <= tol
            and abs(gap_a) <= tol
        )

    # Common building blocks.
    @staticmethod
    def number() -> "QuadraticOperator":
        return QuadraticOperator(c_n=1.0)

    @staticmethod
    def position() -> "QuadraticOperator":
        """X = (a + a†)/√2."""
        return QuadraticOperator(c_a=1.0 / _SQRT2, c_ad=1.0 / _SQRT2)


def commutator(a: QuadraticOperator, b: QuadraticOperator) -> QuadraticOperator:
    """[A, B] computed exactly from [a, a†] = 1.

    Nonzero structure constants in the basis (a†a, a², a†², a, a†, 1):

        [a†a, a²]  = −2 a²      [a†a, a†²] = +2 a†²
        [a†a, a]   = −a         [a†a, a†]  = +a†
        [a², a†²]  = 4 a†a + 2  [a², a†]   = 2 a
        [a†², a]   = −2 a†      [a, a†]    = 1
    """
    a_n, a_aa, a_adad, a_a, a_ad, _ = a
    b_n, b_aa, b_adad, b_a, b_ad, _ = b
    return QuadraticOperator(
        4.0 * (a_aa * b_adad - a_adad * b_aa),
        -2.0 * (a_n * b_aa - a_aa * b_n),
        2.0 * (a_n * b_adad - a_adad * b_n),
        -(a_n * b_a - a_a * b_n) + 2.0 * (a_aa * b_ad - a_ad * b_aa),
        (a_n * b_ad - a_ad * b_n) - 2.0 * (a_adad * b_a - a_a * b_adad),
        2.0 * (a_aa * b_adad - a_adad * b_aa) + (a_a * b_ad - a_ad * b_a),
    )


@dataclass(frozen=True)
class CriticalStructure:
    """Derived commutator structure of a (preparation, encoding) pair.

    C = i[H_c, H_theta] and D = [H_c, [H_c, H_theta]] are both Hermitian;
    Delta is the squared-gap proportionality constant of the closed algebra
    and residual quantifies how well the proportionality actually holds.
    """

    C: QuadraticOperator
    D: QuadraticOperator
    Delta: float
    residual: float


def _finite(values) -> bool:
    """Whether the coefficients are finite: a nan or inf makes their sum nan or inf.

    A sum beyond the float range reads as not finite too.
    """
    total = sum(values)
    return math.isfinite(total.real + total.imag)


def _non_finite(parts: dict) -> NonFiniteError:
    """The error naming each part of a critical structure that is not finite."""
    bad = ", ".join(name for name, values in parts.items() if not _finite(values))
    return NonFiniteError(f"critical structure is not finite ({bad} nan or inf): "
                          "the nested commutators of H_c and H_theta are out of the float range")


def derive_critical_structure(
    hc: QuadraticOperator, htheta: QuadraticOperator
) -> CriticalStructure:
    """Extract (C, D, Delta) from a preparation/encoding Hamiltonian pair.

    The closure condition is checked in the form

        [H_c, [H_c, [H_c, H_theta]]] = Delta * [H_c, H_theta],

    which removes any circular dependence on Delta and turns the extraction
    into a componentwise ratio. Delta is the least-squares fit of that ratio
    over the coefficients of [H_c, H_theta]; the residual is the largest
    coefficient mismatch of the fit relative to the fitted scale.

    Raises CommutingPairError when [H_c, H_theta] = 0 (degenerate, e.g. a
    preparation proportional to the encoding), ConditionViolatedError when
    the closure fails, NegativeDeltaError when the fitted constant is
    negative (the pair closes on a hyperbolic rather than oscillatory
    algebra, so no real gap exists), NonFiniteError when Delta, C or D is
    nan or infinite (the commutators, or the dot products of the fit, overflow
    or underflow out of the float range).
    """
    for op, name in ((hc, "H_c"), (htheta, "H_theta")):
        if not op.is_hermitian():
            raise NotHermitianError(f"{name} must be Hermitian")

    t1 = commutator(hc, htheta)
    d_op = commutator(hc, t1)
    # Checked before the commuting test, which an infinite [H_c, H_θ] passes.
    if not (_finite(t1) and _finite(d_op)):
        raise _non_finite({"C": t1, "D": d_op})
    pair_scale = max(hc.max_abs() * htheta.max_abs(), 1e-300)
    t1_max = t1.max_abs()
    if t1_max <= 1e-13 * pair_scale:
        raise CommutingPairError("[H_c, H_theta] = 0: critical structure undefined")

    c_op = 1j * t1
    t3 = commutator(hc, d_op)

    # The fit's dot products stay in BLAS (np.vdot), whose summation order
    # sets Δ's last bit; the mismatch is six plain complex operations.
    t1_vec = np.array(t1, dtype=complex)
    t3_vec = np.array(t3, dtype=complex)
    with np.errstate(all="ignore"):  # a 0/0 or inf/inf fit is reported just below
        delta_fit = complex(np.vdot(t1_vec, t3_vec) / np.vdot(t1_vec, t1_vec).real)
    # A nan fit would pass the residual test below.
    if not _finite((delta_fit,)):
        raise _non_finite({"Δ": (delta_fit,)})
    mismatch = max(abs(complex(x) - delta_fit * complex(y)) for x, y in zip(t3, t1))
    residual = mismatch / (max(abs(delta_fit), 1e-300) * t1_max)

    if residual > RESIDUAL_MAX:
        raise ConditionViolatedError(
            f"triple-commutator closure fails: residual {residual:.3e} > {RESIDUAL_MAX:.1e}"
        )

    delta = delta_fit.real
    if delta < 0.0:
        if abs(delta) > 1e-12 * max(1.0, abs(delta_fit)):
            raise NegativeDeltaError(f"proportionality constant {delta} < 0")
        delta = 0.0

    return CriticalStructure(C=c_op, D=d_op, Delta=delta, residual=residual)


def flow_weights(k: float, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos(√k t), sin(√k t)/√k, (1 − cos(√k t))/k) over an array of times t.

    These are the three scalar functions of every closed two-term flow in
    this package. A generator M with M² = −k·I has exp(Mt) = c·I + s·M, and
    s and q are the first and second time integrals of c. The same weights
    give the critical preparation (k = Δ) and the phase-space map of a
    quadratic Hamiltonian (k = det G).

    Three branches: k > 0 uses cos/sin, k < 0 uses cosh/sinh, and wherever
    |k t²| is below the series switch all three are 4-term Taylor series in
    x = k t², so the k → 0 limit (1, t, t²/2) is smooth. 1 − cos(y) is
    written 2 sin²(y/2) (and cosh(y) − 1 as 2 sinh²(y/2)) to avoid
    cancellation near the switch. The outputs have the shape of t (numpy
    scalars for a scalar t).
    """
    t = np.asarray(t, dtype=float)
    x = k * t * t
    small = np.abs(x) < SERIES_SWITCH
    n_small = np.count_nonzero(small)
    if n_small == small.size:  # includes k = 0 and t = 0
        return _flow_series(t, x)
    if k > 0.0:
        root = math.sqrt(k)
        y = root * t
        half = np.sin(0.5 * y)
        c, s, q = np.cos(y), np.sin(y) / root, 2.0 * half * half / k
    else:
        root = math.sqrt(-k)
        y = root * t
        half = np.sinh(0.5 * y)
        c, s, q = np.cosh(y), np.sinh(y) / root, -2.0 * half * half / k
    if n_small:
        c[small], s[small], q[small] = _flow_series(t[small], x[small])
    return c, s, q


def _flow_series(t, x):
    """4-term Taylor series of the flow weights in x = k t²."""
    return (
        1.0 - x / 2.0 + x * x / 24.0 - x * x * x / 720.0,
        t * (1.0 - x / 6.0 + x * x / 120.0 - x * x * x / 5040.0),
        0.5 * t * t * (1.0 - x / 12.0 + x * x / 360.0 - x * x * x / 20160.0),
    )


def quadrature_entries(op: QuadraticOperator) -> tuple[float, float, float, float, float, float]:
    """(G_xx, G_xp, G_pp, v_x, v_p, c0) of a Hermitian operator ½ rᵀG r + vᵀr + c0.

    r = (X, P), in the symmetric (Weyl) ordering of the quadrature monomials;
    the reordering constant lands in c0 (e.g. a†a = (X² + P² − 1)/2 gives
    G = I, v = 0, c0 = −1/2).
    """
    if not op.is_hermitian():
        raise NotHermitianError("quadrature form requires a Hermitian operator")
    cn = op.c_n.real
    re_aa, im_aa = op.c_aa.real, op.c_aa.imag
    return (cn + 2.0 * re_aa, -2.0 * im_aa, cn - 2.0 * re_aa,
            _SQRT2 * op.c_a.real, -_SQRT2 * op.c_a.imag, op.c_1.real - 0.5 * cn)


def to_quadrature_form(op: QuadraticOperator) -> tuple[np.ndarray, np.ndarray, float]:
    """(G, v, c0) of :func:`quadrature_entries` as a 2×2 matrix, a vector and a float."""
    gxx, gxp, gpp, vx, vp, c0 = quadrature_entries(op)
    return np.array([[gxx, gxp], [gxp, gpp]]), np.array([vx, vp]), c0
