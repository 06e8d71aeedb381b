"""Exact algebra of single-mode quadratic bosonic Hamiltonians.

Every Hamiltonian of this package, and every operator derived from one, is
a real quadratic form in the quadratures r = (X, P),

    O = ½ rᵀG r + vᵀr + c0,    G real symmetric,

held as a :class:`Quadratic` of its six real entries. A real form is
Hermitian by construction. The span {X², XP + PX, P², X, P, 1} is closed
under i[·, ·], so the nested commutators of the critical structure are exact
2×2 algebra (:func:`commutator`) with no truncation; cubic or higher terms
are unrepresentable. The algebra of one pair is plain Python arithmetic on
six floats; a stack of pairs (array entries, one model value per element)
runs the same arithmetic elementwise in numpy, as do the flow weights over
arrays of times.

Quadrature convention used throughout: X = (a + a†)/√2, P = i(a† − a)/√2,
so [X, P] = i, the vacuum has Var X = Var P = 1/2, and a†a = ½(X² + P²) − ½
is G = I, c0 = −½. Monomials are symmetrically ordered: G_xp multiplies
½(XP + PX). Flow conventions follow Weedbrook et al., "Gaussian quantum
information", Rev. Mod. Phys. 84, 621 (2012).
"""

from __future__ import annotations

import math
import sys
from functools import partial, reduce
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

    Floats for one operator, so equal operators compare and hash equal, or
    arrays for a stack of them; :class:`canp.metrology.Protocol` reads its
    QFI from covariances of three.
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
    :class:`canp.metrology.Protocol` is exactly t_θ H_θ. The structure of a
    stack of pairs holds arrays, one element per pair.
    """

    C: Quadratic
    D: Quadratic
    Delta: float
    residual: float


def _total(op: Quadratic):
    """The sum of the entries, left to right, elementwise for a stack: nan or inf
    when an entry is, or when the sum leaves the float range (sum() would
    compensate from Python 3.12, which a stack's sum does not)."""
    gxx, gxp, gpp, vx, vp, c0 = op
    return gxx + gxp + gpp + vx + vp + c0


def _largest(values):
    """max(values) elementwise: as in Python, a nan first value stays and a later nan is skipped."""
    first, *rest = values
    return np.where(first != first, first, reduce(np.fmax, rest, first))


def _choose(cond, a, b):
    """np.where of one pair."""
    return a if cond else b


def _non_finite(totals: dict, source: str) -> NonFiniteError:
    """The error naming each part of a critical structure whose total is not finite,
    and its source."""
    bad = ", ".join(name for name, total in totals.items() if not math.isfinite(total))
    return NonFiniteError(f"critical structure is not finite ({bad} nan or inf): "
                          f"{source} out of the float range")


def _closure(hc: Quadratic, htheta: Quadratic, largest, where) -> tuple:
    """(C, D, commuting, Delta, residual) of a pair or a stack, untested; largest
    and where are max and _choose for floats, _largest and np.where for arrays."""
    c_op = commutator(hc, htheta)
    d_op = commutator(c_op, hc)
    c_max = largest(map(abs, c_op))
    scale = largest(map(abs, hc)) * largest(map(abs, htheta))
    commuting = c_max <= 1e-13 * largest((scale, 1e-300))
    gxx, gxp, gpp = hc[:3]
    g_max = largest(map(abs, hc[:3]))
    # Where the squares of G_c's entries leave the normal float range, so does det G_c.
    underflows = (g_max != 0.0) & (g_max * g_max < sys.float_info.min)
    det = where(underflows, math.nan, gxx * gpp - gxp * gxp)
    # Below the residual bound, C's quadratic part is the rounding of a commuting one.
    delta = where(largest(map(abs, c_op[:3])) > RESIDUAL_MAX * c_max, 4.0 * det, det)
    mismatch = largest([abs(x - delta * y) for x, y in zip(commutator(hc, d_op), c_op)])
    # The floor keeps the product of a zero Δ's 1e-300 and a c_max below ~2.5e-24 off 0.
    residual = mismatch / largest((largest((abs(delta), 1e-300)) * c_max, 5e-324))
    return c_op, d_op, commuting, delta, residual


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
    Delta = residual = 0, whatever its Delta would be.

    Raises ConditionViolatedError when the closure fails, NegativeDeltaError
    when the pair closes with Delta < 0 (det G_c < 0, a hyperbolic H_c, so no
    real gap exists), NonFiniteError when C or D is nan or infinite, or when
    Delta is (det G_c overflows, or the entries of G_c are below ~1.5e-154,
    so that their squares underflow).

    Entries may be arrays, a stack of pairs over their broadcast shape (a
    sweep's model values): one call derives them all, each field an array
    of that shape whose every element is, bit for bit, what its pair alone
    gives, and the first pair (C order) that fails raises its own error.
    Float entries keep Python-float arithmetic.
    """
    if not isinstance(sum(hc + htheta), np.ndarray):  # float entries
        c_op, d_op, commuting, delta, residual = _closure(hc, htheta, max, _choose)
        # Checked before the commuting test, which an infinite C passes.
        c_total, d_total = _total(c_op), _total(d_op)
        if not (math.isfinite(c_total) and math.isfinite(d_total)):
            raise _non_finite({"C": c_total, "D": d_total},
                              "the nested commutators of H_c and H_theta are")
        if commuting:
            return CriticalStructure(C=Quadratic(), D=Quadratic(), Delta=0.0, residual=0.0)
        # A nan Δ would pass the residual test below.
        if not math.isfinite(delta):
            raise _non_finite({"Δ": delta}, "det G_c of H_c's entries "
                              f"gxx={hc.gxx:.6g}, gxp={hc.gxp:.6g}, gpp={hc.gpp:.6g} is")
        if residual > RESIDUAL_MAX:
            raise ConditionViolatedError(
                f"triple-commutator closure fails: residual {residual:.3e} > {RESIDUAL_MAX:.1e}"
            )
        if delta < -1e-12:
            raise NegativeDeltaError(f"proportionality constant {delta} < 0")
        return CriticalStructure(C=c_op, D=d_op, Delta=max(delta, 0.0), residual=residual)

    shape = np.broadcast_shapes(*map(np.shape, (*hc, *htheta)))
    with np.errstate(all="ignore"):  # a failing pair's values are only tested
        c_op, d_op, commuting, delta, residual = _closure(hc, htheta, _largest, np.where)
        finite = np.isfinite(_total(c_op)) & np.isfinite(_total(d_op))
        closes = np.isfinite(delta) & ~(residual > RESIDUAL_MAX) & ~(delta < -1e-12)
    commuting = np.broadcast_to(commuting, shape)
    failed = np.flatnonzero(~finite | ~commuting & ~closes)
    if failed.size:  # the first failing pair raises its own error
        derive_critical_structure(*(Quadratic(*(np.broadcast_to(x, shape).flat[failed[0]].item()
                                                for x in form)) for form in (hc, htheta)))
    zero = partial(np.where, commuting, 0.0)  # a commuting pair has the zero structure
    return CriticalStructure(Quadratic(*map(zero, c_op)), Quadratic(*map(zero, d_op)),
                             zero(np.where(0.0 > delta, 0.0, delta)), zero(residual))


def flow_weights(k, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos(√k t), sin(√k t)/√k, (1 − cos(√k t))/k) over arrays of k and times t.

    These are the three scalar functions of every closed two-term flow in
    this package. A generator M with M² = −k·I has exp(Mt) = c·I + s·M, and
    s and q are the first and second time integrals of c. The same weights
    give the critical preparation (k = Δ) and the phase-space map of a
    quadratic Hamiltonian (k = det G).

    Three branches, picked per element: k > 0 uses cos/sin, k < 0 uses
    cosh/sinh, and wherever |k t²| is below the series switch all three are
    4-term Taylor series in x = k t², so the k → 0 limit (1, t, t²/2) is
    smooth. q is written 2 sin²(y/2)/|k| (or 2 sinh²(y/2)/|k|) to avoid the
    cancellation of 1 − cos(y) near the switch. k and t broadcast;
    the outputs have their broadcast shape (numpy scalars for scalars), and
    each element is the one a scalar k gives.
    """
    t = np.asarray(t, dtype=float)
    x = k * t * t
    small = np.abs(x) < SERIES_SWITCH
    n_small = np.count_nonzero(small)
    if n_small == small.size:  # includes k = 0 and t = 0
        return _flow_series(t, x)
    if n_small and isinstance(k, np.ndarray):  # the series replaces these: no k = 0 divides
        k, t = np.where(small, 1.0, k), np.broadcast_to(t, x.shape)
    root, elliptic = np.sqrt(abs(k)), k > 0.0
    y = root * t
    half = _branch(np.sin, np.sinh, 0.5 * y, elliptic)
    c, s, q = (_branch(np.cos, np.cosh, y, elliptic), _branch(np.sin, np.sinh, y, elliptic) / root,
               2.0 * half * half / abs(k))
    if n_small:
        c[small], s[small], q[small] = _flow_series(t[small], x[small])
    return c, s, q


def _branch(trig, hyperbolic, y, elliptic):
    """trig(y) where elliptic, hyperbolic(y) elsewhere; each element is computed once."""
    if not isinstance(elliptic, np.ndarray):
        return (trig if elliptic else hyperbolic)(y)
    return hyperbolic(y, out=trig(y, out=np.empty(y.shape), where=elliptic), where=~elliptic)


def _flow_series(t, x):
    """4-term Taylor series of the flow weights in x = k t²."""
    return (
        1.0 - x / 2.0 + x * x / 24.0 - x * x * x / 720.0,
        t * (1.0 - x / 6.0 + x * x / 120.0 - x * x * x / 5040.0),
        0.5 * t * t * (1.0 - x / 12.0 + x * x / 360.0 - x * x * x / 20160.0),
    )
