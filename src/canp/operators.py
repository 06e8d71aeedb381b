"""Exact algebra of single-mode quadratic bosonic Hamiltonians.

Every Hamiltonian of this package, and every operator derived from one, is
a real quadratic form in the quadratures r = (X, P),

    O = ½ rᵀG r + vᵀr + c0,    G real symmetric,

held as a :class:`Quadratic` of its six real entries. A real form is
Hermitian by construction. The span {X², XP + PX, P², X, P, 1} is closed
under i[·, ·], so the nested commutators of the critical structure are exact
2×2 algebra (:func:`commutator`) with no truncation; cubic or higher terms
are unrepresentable. The runtime derives the critical structure of each
model value it touches, so the algebra is plain Python arithmetic on six
floats; numpy enters only for the flow weights over time arrays.

Quadrature convention used throughout: X = (a + a†)/√2, P = i(a† − a)/√2,
so [X, P] = i, the vacuum has Var X = Var P = 1/2, and a†a = ½(X² + P²) − ½
is G = I, c0 = −½. Monomials are symmetrically ordered: G_xp multiplies
½(XP + PX). Flow conventions follow Weedbrook et al., "Gaussian quantum
information", Rev. Mod. Phys. 84, 621 (2012).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConditionViolatedError, NegativeDeltaError, NonFiniteError

# Maximum admissible relative residual of the triple-commutator check.
RESIDUAL_MAX = 1e-8
# Below this value of |k t²| the weights of flow_weights are evaluated by
# Taylor series so the k -> 0 limit is smooth.
SERIES_SWITCH = 1e-6


class Quadratic(NamedTuple):
    """Entries (G_xx, G_xp, G_pp, v_x, v_p, c0) of ½ rᵀG r + vᵀr + c0, r = (X, P).

    Floats for one operator, so equal operators compare and hash equal;
    :class:`canp.metrology.Protocol` reads its QFI from covariances of three.
    """

    gxx: float = 0.0
    gxp: float = 0.0
    gpp: float = 0.0
    vx: float = 0.0
    vp: float = 0.0
    c0: float = 0.0


def commutator(a: Quadratic, b: Quadratic) -> Quadratic:
    """i[A, B] of two forms, itself a form.

    From [r_j, r_k] = iΩ_jk with Ω = [[0, 1], [−1, 0]], forms A = (A, a, ·)
    and B = (B, b, ·) give

        i[A, B] = ½ rᵀ(BΩA − AΩB) r + (BΩa − AΩb)ᵀ r − aᵀΩb,

    where BΩA − AΩB = BΩA + (BΩA)ᵀ is symmetric. Constants drop out.
    """
    a0, a1, a2, ax, ap, _ = a
    b0, b1, b2, bx, bp, _ = b
    return Quadratic(
        2.0 * (b0 * a1 - b1 * a0),
        b0 * a2 - b2 * a0,
        2.0 * (b1 * a2 - b2 * a1),
        (b0 * ap - b1 * ax) - (a0 * bp - a1 * bx),
        (b1 * ap - b2 * ax) - (a1 * bp - a2 * bx),
        ap * bx - ax * bp,
    )


class CriticalStructure(NamedTuple):
    """Derived commutator structure of a (preparation, encoding) pair.

    C = i[H_c, H_theta] and D = [H_c, [H_c, H_theta]] are real forms;
    Delta is the squared-gap proportionality constant of the closed algebra
    and residual quantifies how well the proportionality actually holds.
    A commuting pair is the zero structure: C = D = 0, and Delta = 0 and
    residual = 0 by convention, so the generator of
    :class:`canp.metrology.Protocol` is exactly t_θ H_θ.
    """

    C: Quadratic
    D: Quadratic
    Delta: float
    residual: float


def _max_abs(op: Quadratic) -> float:
    """Largest entry magnitude (natural scale of the operator)."""
    return max(map(abs, op))


def _finite(values) -> bool:
    """Whether the entries are finite: a nan or inf makes their sum nan or inf.

    A sum beyond the float range reads as not finite too.
    """
    return math.isfinite(sum(values))


def _non_finite(parts: dict, source: str) -> NonFiniteError:
    """The error naming each part of a critical structure that is not finite, and its source."""
    bad = ", ".join(name for name, values in parts.items() if not _finite(values))
    return NonFiniteError(f"critical structure is not finite ({bad} nan or inf): "
                          f"{source} out of the float range")


def derive_critical_structure(hc: Quadratic, htheta: Quadratic) -> CriticalStructure:
    """Extract (C, D, Delta) from a preparation/encoding Hamiltonian pair.

    C = i[H_c, H_θ] and D = [H_c, [H_c, H_θ]] = i[C, H_c]; the pair closes
    when i[H_c, D] = Delta * C. As M = ΩG_c has M² = −det G_c·I, i[H_c, ·]
    has eigenvalues ±2i√det G_c on quadratic forms and ±i√det G_c on linear
    ones, so Delta = 4 det G_c when C has a quadratic part and det G_c when
    it has none; a shift of the origin (v_c ≠ 0) changes neither. The
    residual, the largest entry of i[H_c, D] − Delta·C relative to Delta
    times the largest entry of C, refuses a C with both parts.

    A commuting pair (C = 0 to 1e-13 of the pair's scale, e.g. a preparation
    proportional to the encoding) gives the zero structure, C = D = 0 and
    Delta = residual = 0; this test is made before Delta is computed.

    Raises ConditionViolatedError when the closure fails, NegativeDeltaError
    when the pair closes with Delta < 0 (det G_c < 0, a hyperbolic H_c, so no
    real gap exists), NonFiniteError when C or D is nan or infinite, or when
    Delta is (det G_c overflows, or the entries of G_c are below ~1.5e-154,
    so that their squares underflow).
    """
    c_op = commutator(hc, htheta)
    d_op = commutator(c_op, hc)
    # Checked before the commuting test, which an infinite C passes.
    if not (_finite(c_op) and _finite(d_op)):
        raise _non_finite({"C": c_op, "D": d_op}, "the nested commutators of H_c and H_theta are")
    c_max = _max_abs(c_op)
    if c_max <= 1e-13 * max(_max_abs(hc) * _max_abs(htheta), 1e-300):
        return CriticalStructure(C=Quadratic(), D=Quadratic(), Delta=0.0, residual=0.0)

    gxx, gxp, gpp = hc[:3]
    g_max = _max_abs((gxx, gxp, gpp))
    # Where the squares of G_c's entries leave the normal float range, so does det G_c.
    det = math.nan if g_max and g_max * g_max < sys.float_info.min else gxx * gpp - gxp * gxp
    # Below the residual bound, C's quadratic part is the rounding of a commuting one.
    delta = 4.0 * det if _max_abs(c_op[:3]) > RESIDUAL_MAX * c_max else det
    # A nan Δ would pass the residual test below.
    if not math.isfinite(delta):
        raise _non_finite({"Δ": (delta,)}, "det G_c of H_c's entries "
                          f"gxx={gxx:.6g}, gxp={gxp:.6g}, gpp={gpp:.6g} is")
    t3 = commutator(hc, d_op)
    mismatch = max(abs(x - delta * y) for x, y in zip(t3, c_op))
    residual = mismatch / (max(abs(delta), 1e-300) * c_max)

    if residual > RESIDUAL_MAX:
        raise ConditionViolatedError(
            f"triple-commutator closure fails: residual {residual:.3e} > {RESIDUAL_MAX:.1e}"
        )
    if delta < -1e-12:
        raise NegativeDeltaError(f"proportionality constant {delta} < 0")
    return CriticalStructure(C=c_op, D=d_op, Delta=max(delta, 0.0), residual=residual)


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
