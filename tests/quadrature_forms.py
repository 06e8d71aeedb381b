"""Test-side references for quadratic operators.

:func:`from_quadrature_form` is the inverse of canp.operators.to_quadrature_form;
:func:`hermitian_within_tolerance` is the Hermiticity rule written out once
more, with no shortcut, for comparison with QuadraticOperator.is_hermitian.
"""

import math

import numpy as np

from canp.operators import HERMITIAN_TOL, QuadraticOperator

_SQRT2 = math.sqrt(2.0)


def from_quadrature_form(
    g_mat: np.ndarray, v: np.ndarray, c0: float
) -> QuadraticOperator:
    """The operator ½ rᵀG r + vᵀr + c0 with r = (X, P) (G must be symmetric)."""
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


def hermitian_within_tolerance(op: QuadraticOperator) -> bool:
    """c_n and c_1 real and c_adad = conj(c_aa), c_ad = conj(c_a), each to
    HERMITIAN_TOL times max(1, largest coefficient magnitude)."""
    c_n, c_aa, c_adad, c_a, c_ad, c_1 = op
    tol = HERMITIAN_TOL * max(1.0, max(abs(c) for c in op))
    gaps = (c_n.imag, c_1.imag, c_adad - c_aa.conjugate(), c_ad - c_a.conjugate())
    return all(abs(gap) <= tol for gap in gaps)
