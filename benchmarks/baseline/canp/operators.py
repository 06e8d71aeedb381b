"""Exact algebra of single-mode quadratic bosonic operators.

Every operator handled by this package lives in the six-dimensional complex
Lie algebra spanned by {a†a, a², a†², a, a†, 1}. Commutators follow from
[a, a†] = 1 and close on the same span, so all manipulations here are exact
coefficient arithmetic with no truncation. Cubic or higher terms are
unrepresentable by construction.

Quadrature convention used throughout: X = (a + a†)/√2, P = i(a† − a)/√2,
so [X, P] = i and the vacuum has Var X = Var P = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CommutingPairError,
    ConditionViolatedError,
    NegativeDeltaError,
    NotHermitianError,
)

# Coefficient tolerance for Hermiticity and algebra checks (double-precision
# headroom over exact-rational truth).
HERMITIAN_TOL = 1e-12
# Maximum admissible relative residual of the triple-commutator check.
RESIDUAL_MAX = 1e-8
# Below this value of Delta * t_c**2 the trigonometric weights are evaluated
# by Taylor series so the Delta -> 0 limit is smooth.
SERIES_SWITCH = 1e-6

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadraticOperator:
    """c_n a†a + c_aa a² + c_adad a†² + c_a a + c_ad a† + c_1."""

    c_n: complex = 0j
    c_aa: complex = 0j
    c_adad: complex = 0j
    c_a: complex = 0j
    c_ad: complex = 0j
    c_1: complex = 0j

    def coeffs(self) -> tuple[complex, complex, complex, complex, complex, complex]:
        return (
            complex(self.c_n),
            complex(self.c_aa),
            complex(self.c_adad),
            complex(self.c_a),
            complex(self.c_ad),
            complex(self.c_1),
        )

    def max_abs(self) -> float:
        """Largest coefficient magnitude (natural scale of the operator)."""
        return max(abs(c) for c in self.coeffs())

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return QuadraticOperator(
            self.c_n + other.c_n,
            self.c_aa + other.c_aa,
            self.c_adad + other.c_adad,
            self.c_a + other.c_a,
            self.c_ad + other.c_ad,
            self.c_1 + other.c_1,
        )

    def __sub__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "QuadraticOperator":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "QuadraticOperator":
        s = complex(scalar)
        return QuadraticOperator(*(s * c for c in self.coeffs()))

    __rmul__ = __mul__

    def dagger(self) -> "QuadraticOperator":
        """Hermitian adjoint (swaps a <-> a†, a² <-> a†², conjugates)."""
        return QuadraticOperator(
            self.c_n.conjugate(),
            self.c_adad.conjugate(),
            self.c_aa.conjugate(),
            self.c_ad.conjugate(),
            self.c_a.conjugate(),
            self.c_1.conjugate(),
        )

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        """True iff c_n, c_1 real, c_adad = conj(c_aa), c_ad = conj(c_a).

        The tolerance is scaled by the operator's coefficient magnitude so
        large operators are judged on the same relative footing.
        """
        scale = max(1.0, self.max_abs())
        return (
            abs(self.c_n.imag) <= tol * scale
            and abs(self.c_1.imag) <= tol * scale
            and abs(self.c_adad - self.c_aa.conjugate()) <= tol * scale
            and abs(self.c_ad - self.c_a.conjugate()) <= tol * scale
        )

    def isclose(self, other: "QuadraticOperator", tol: float = HERMITIAN_TOL) -> bool:
        return all(
            abs(x - y) <= tol * max(1.0, self.max_abs(), other.max_abs())
            for x, y in zip(self.coeffs(), other.coeffs())
        )

    # JSON wire format: six {re, im} pairs keyed by term.
    def to_json(self) -> dict:
        keys = ("n", "aa", "adad", "a", "ad", "one")
        return {k: {"re": c.real, "im": c.imag} for k, c in zip(keys, self.coeffs())}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadraticOperator":
        def grab(key: str) -> complex:
            pair = obj.get(key, {"re": 0.0, "im": 0.0})
            return complex(float(pair["re"]), float(pair["im"]))

        return cls(
            c_n=grab("n"),
            c_aa=grab("aa"),
            c_adad=grab("adad"),
            c_a=grab("a"),
            c_ad=grab("ad"),
            c_1=grab("one"),
        )

    # Common building blocks.
    @staticmethod
    def number() -> "QuadraticOperator":
        return QuadraticOperator(c_n=1.0)

    @staticmethod
    def identity() -> "QuadraticOperator":
        return QuadraticOperator(c_1=1.0)

    @staticmethod
    def annihilation() -> "QuadraticOperator":
        return QuadraticOperator(c_a=1.0)

    @staticmethod
    def creation() -> "QuadraticOperator":
        return QuadraticOperator(c_ad=1.0)

    @staticmethod
    def position() -> "QuadraticOperator":
        """X = (a + a†)/√2."""
        return QuadraticOperator(c_a=1.0 / _SQRT2, c_ad=1.0 / _SQRT2)

    @staticmethod
    def momentum() -> "QuadraticOperator":
        """P = i(a† − a)/√2."""
        return QuadraticOperator(c_a=-1j / _SQRT2, c_ad=1j / _SQRT2)


def commutator(a: QuadraticOperator, b: QuadraticOperator) -> QuadraticOperator:
    """[A, B] computed exactly from [a, a†] = 1.

    Nonzero structure constants in the basis (a†a, a², a†², a, a†, 1):

        [a†a, a²]  = −2 a²      [a†a, a†²] = +2 a†²
        [a†a, a]   = −a         [a†a, a†]  = +a†
        [a², a†²]  = 4 a†a + 2  [a², a†]   = 2 a
        [a†², a]   = −2 a†      [a, a†]    = 1
    """
    return QuadraticOperator(
        c_n=4.0 * (a.c_aa * b.c_adad - a.c_adad * b.c_aa),
        c_aa=-2.0 * (a.c_n * b.c_aa - a.c_aa * b.c_n),
        c_adad=2.0 * (a.c_n * b.c_adad - a.c_adad * b.c_n),
        c_a=-(a.c_n * b.c_a - a.c_a * b.c_n) + 2.0 * (a.c_aa * b.c_ad - a.c_ad * b.c_aa),
        c_ad=(a.c_n * b.c_ad - a.c_ad * b.c_n) - 2.0 * (a.c_adad * b.c_a - a.c_a * b.c_adad),
        c_1=2.0 * (a.c_aa * b.c_adad - a.c_adad * b.c_aa) + (a.c_a * b.c_ad - a.c_ad * b.c_a),
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
    algebra, so no real gap exists).
    """
    for op, name in ((hc, "H_c"), (htheta, "H_theta")):
        if not op.is_hermitian():
            raise NotHermitianError(f"{name} must be Hermitian")

    t1 = commutator(hc, htheta)
    pair_scale = max(hc.max_abs() * htheta.max_abs(), 1e-300)
    t1_max = t1.max_abs()
    if t1_max <= 1e-13 * pair_scale:
        raise CommutingPairError("[H_c, H_theta] = 0: critical structure undefined")

    c_op = 1j * t1
    d_op = commutator(hc, t1)
    t3 = commutator(hc, d_op)

    t1_vec = np.array(t1.coeffs())
    t3_vec = np.array(t3.coeffs())
    delta_fit = np.vdot(t1_vec, t3_vec) / np.vdot(t1_vec, t1_vec).real
    mismatch = np.max(np.abs(t3_vec - delta_fit * t1_vec))
    residual = float(mismatch / (max(abs(delta_fit), 1e-300) * t1_max))

    if residual > RESIDUAL_MAX:
        raise ConditionViolatedError(
            f"triple-commutator closure fails: residual {residual:.3e} > {RESIDUAL_MAX:.1e}"
        )

    delta = float(delta_fit.real)
    if delta < 0.0:
        if abs(delta) > 1e-12 * max(1.0, abs(delta_fit)):
            raise NegativeDeltaError(f"proportionality constant {delta} < 0")
        delta = 0.0

    return CriticalStructure(C=c_op, D=d_op, Delta=delta, residual=residual)


def preparation_weights(delta: float, t_c: float) -> tuple[float, float]:
    """Weights (sin(√Δ t_c)/√Δ, (cos(√Δ t_c) − 1)/Δ), safe at Δ → 0.

    For Δ t_c² below the series switch both ratios are evaluated by 4-term
    Taylor series in x = Δ t_c²; otherwise the closed forms are used, with
    cos(y) − 1 rewritten as −2 sin²(y/2) to avoid cancellation near the
    switch. Limits at Δ = 0: (t_c, −t_c²/2).
    """
    x = delta * t_c * t_c
    if abs(x) < SERIES_SWITCH:
        s = t_c * (1.0 - x / 6.0 + x * x / 120.0 - x * x * x / 5040.0)
        c = -0.5 * t_c * t_c * (1.0 - x / 12.0 + x * x / 360.0 - x * x * x / 20160.0)
        return s, c
    root = math.sqrt(delta)
    y = root * t_c
    half = math.sin(0.5 * y)
    return math.sin(y) / root, -2.0 * half * half / delta


def generator(
    htheta: QuadraticOperator,
    cs: CriticalStructure,
    t_c: float,
    t_theta: float,
) -> QuadraticOperator:
    """Local generator of parameter translations after critical preparation.

    h = t_theta * (H_theta + sin(√Δ t_c)/√Δ · C + (cos(√Δ t_c) − 1)/Δ · D).

    Its variance in the initial probe, times 4, is the exact pure-state
    quantum Fisher information of the prepare-then-encode protocol.
    """
    if cs.residual >= RESIDUAL_MAX:
        raise ConditionViolatedError(
            f"critical structure residual {cs.residual:.3e} exceeds {RESIDUAL_MAX:.1e}"
        )
    if t_c < 0.0 or t_theta < 0.0:
        raise ValueError("durations must be nonnegative")
    s, c = preparation_weights(cs.Delta, t_c)
    return t_theta * (htheta + s * cs.C + c * cs.D)


def to_quadrature_form(op: QuadraticOperator) -> tuple[np.ndarray, np.ndarray, float]:
    """Write a Hermitian operator as ½ rᵀG r + vᵀr + c0 with r = (X, P).

    Uses the symmetric (Weyl) ordering of the quadrature monomials; the
    reordering constant lands in c0 (e.g. a†a = (X² + P² − 1)/2 gives
    G = I, v = 0, c0 = −1/2).
    """
    if not op.is_hermitian():
        raise NotHermitianError("quadrature form requires a Hermitian operator")
    cn = op.c_n.real
    re_aa = op.c_aa.real
    im_aa = op.c_aa.imag
    g_mat = np.array(
        [
            [cn + 2.0 * re_aa, -2.0 * im_aa],
            [-2.0 * im_aa, cn - 2.0 * re_aa],
        ]
    )
    v = np.array([_SQRT2 * op.c_a.real, -_SQRT2 * op.c_a.imag])
    c0 = op.c_1.real - 0.5 * cn
    return g_mat, v, c0


def from_quadrature_form(
    g_mat: np.ndarray, v: np.ndarray, c0: float
) -> QuadraticOperator:
    """Inverse of :func:`to_quadrature_form` (G must be symmetric)."""
    g_mat = np.asarray(g_mat, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(g_mat[0, 1] - g_mat[1, 0]) > 1e-12 * max(1.0, float(np.max(np.abs(g_mat)))):
        raise ValueError("G must be symmetric")
    cn = 0.5 * (g_mat[0, 0] + g_mat[1, 1])
    c_aa = complex(0.25 * (g_mat[0, 0] - g_mat[1, 1]), -0.5 * g_mat[0, 1])
    c_a = complex(v[0], -v[1]) / _SQRT2
    return QuadraticOperator(
        c_n=cn,
        c_aa=c_aa,
        c_adad=c_aa.conjugate(),
        c_a=c_a,
        c_ad=c_a.conjugate(),
        c_1=c0 + 0.5 * cn,
    )
