"""The ladder route: quadratic operators as six complex ladder coefficients.

An independent reference for canp's real quadrature forms. A :class:`Ladder`
holds (c_n, c_aa, c_adad, c_a, c_ad, c_1) of

    c_n a†a + c_aa a² + c_adad a†² + c_a a + c_ad a† + c_1,

:func:`ladder_commutator` is [A, B] from [a, a†] = 1 alone,
:func:`ladder_matrix` assembles an operator from dense ladder-matrix
products, and :func:`to_ladder` and :func:`from_ladder` convert to and from
the form ½ rᵀG r + vᵀr + c0 with r = (X, P), X = (a + a†)/√2 and
P = i(a† − a)/√2.

It also holds the tests' independent expectations: :func:`expectation` of
an operator in a Gaussian state, :func:`expectation_fock` in a number-basis
state, a number-basis state's :func:`density_matrix`, and the general
(mixed-state) skew information :func:`skew_information_general`, whose
pure-state form is canp's `Protocol.skew`.
"""

import math
from typing import NamedTuple

import numpy as np

from canp import fock
from canp.gaussian import GaussianState
from canp.operators import Quadratic

_SQRT2 = math.sqrt(2.0)


class Ladder(NamedTuple):
    c_n: complex = 0j
    c_aa: complex = 0j
    c_adad: complex = 0j
    c_a: complex = 0j
    c_ad: complex = 0j
    c_1: complex = 0j


def ladder_commutator(a: Ladder, b: Ladder) -> Ladder:
    """[A, B] computed exactly from [a, a†] = 1.

    Nonzero structure constants in the basis (a†a, a², a†², a, a†, 1):

        [a†a, a²]  = −2 a²      [a†a, a†²] = +2 a†²
        [a†a, a]   = −a         [a†a, a†]  = +a†
        [a², a†²]  = 4 a†a + 2  [a², a†]   = 2 a
        [a†², a]   = −2 a†      [a, a†]    = 1
    """
    a_n, a_aa, a_adad, a_a, a_ad, _ = a
    b_n, b_aa, b_adad, b_a, b_ad, _ = b
    return Ladder(
        4.0 * (a_aa * b_adad - a_adad * b_aa),
        -2.0 * (a_n * b_aa - a_aa * b_n),
        2.0 * (a_n * b_adad - a_adad * b_n),
        -(a_n * b_a - a_a * b_n) + 2.0 * (a_aa * b_ad - a_ad * b_aa),
        (a_n * b_ad - a_ad * b_n) - 2.0 * (a_adad * b_a - a_a * b_adad),
        2.0 * (a_aa * b_adad - a_adad * b_aa) + (a_a * b_ad - a_ad * b_a),
    )


def to_ladder(op: Quadratic) -> Ladder:
    """The ladder coefficients of ½ rᵀG r + vᵀr + c0."""
    gxx, gxp, gpp, vx, vp, c0 = map(float, op)
    c_n = 0.5 * (gxx + gpp)
    c_aa = complex(0.25 * (gxx - gpp), -0.5 * gxp)
    c_a = complex(vx, -vp) / _SQRT2
    return Ladder(c_n, c_aa, c_aa.conjugate(), c_a, c_a.conjugate(), c0 + 0.5 * c_n)


def from_ladder(op: Ladder) -> Quadratic:
    """(G, v, c0) of a Hermitian ladder operator (c_n, c_1 real, c_adad = c̄_aa, c_ad = c̄_a).

    Only c_n, c_aa, c_a and c_1 are read, so an operator Hermitian up to
    rounding gives the form of its Hermitian part's leading coefficients.
    """
    c_n, c_aa, _, c_a, _, c_1 = (complex(c) for c in op)
    return Quadratic(c_n.real + 2.0 * c_aa.real, -2.0 * c_aa.imag, c_n.real - 2.0 * c_aa.real,
                     _SQRT2 * c_a.real, -_SQRT2 * c_a.imag, c_1.real - 0.5 * c_n.real)


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator: a|n⟩ = √n |n−1⟩."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def ladder_matrix(op: Ladder, dim: int) -> np.ndarray:
    """The operator on the lowest dim number states, from dense ladder-matrix products."""
    a = ladder(dim)
    ad = a.T
    return (
        op.c_n * (ad @ a)
        + op.c_aa * (a @ a)
        + op.c_adad * (ad @ ad)
        + op.c_a * a
        + op.c_ad * ad
        + op.c_1 * np.eye(dim)
    ).astype(complex)


def expectation(state: GaussianState, op: Quadratic) -> float:
    """⟨O⟩ = ½Tr(G sigma) + ½ muᵀG mu + vᵀmu + c0."""
    g_mat = np.array([[op.gxx, op.gxp], [op.gxp, op.gpp]])
    return float(
        0.5 * np.trace(g_mat @ state.sigma)
        + 0.5 * state.mu @ g_mat @ state.mu
        + np.array([op.vx, op.vp]) @ state.mu
        + op.c0
    )


def expectation_fock(state: fock.FockState, op: Quadratic) -> float:
    return float(np.real(np.vdot(state.amps, fock._apply(op, state.amps))))


def density_matrix(state: fock.FockState) -> np.ndarray:
    return np.outer(state.amps, state.amps.conj())


class NotPositiveError(ValueError):
    """Matrix expected to be a density operator is not positive / trace one."""


def skew_information_general(b_matrix: np.ndarray, k_matrix: np.ndarray) -> float:
    """Skew information Tr[B K²] − Tr[√B K √B K] of a state B and observable K.

    B must be positive semidefinite with unit trace; √B is taken through the
    eigendecomposition. For pure B this reduces to the variance of K, and it
    vanishes whenever B and K commute (e.g. the maximally mixed state).

    Eigenvalues below 1e-13 are floored to zero before the square root:
    rounding noise ±ε on a true zero eigenvalue would otherwise enter √B at
    the √ε level and dominate the error for rank-deficient states.
    """
    b = np.asarray(b_matrix, dtype=complex)
    k = np.asarray(k_matrix, dtype=complex)
    tr = np.trace(b).real
    if abs(tr - 1.0) > 1e-10:
        raise NotPositiveError(f"trace {tr} is not 1")
    evals, evecs = np.linalg.eigh(b)
    if np.min(evals) < -1e-10:
        raise NotPositiveError(f"negative eigenvalue {np.min(evals):.3e}")
    evals = np.where(evals < 1e-13, 0.0, evals)
    sqrt_b = (evecs * np.sqrt(evals)) @ evecs.conj().T
    second_moment = np.trace(b @ k @ k).real
    s = float(second_moment - np.trace(sqrt_b @ k @ sqrt_b @ k).real)
    # Mathematically s >= 0; absorb rounding-level negatives only, so a
    # genuinely negative value (an upstream bug) stays visible.
    return max(s, 0.0) if s > -1e-12 * max(1.0, abs(second_moment)) else s
