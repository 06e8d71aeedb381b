"""Exact Gaussian-state dynamics under quadratic Hamiltonians.

A single-mode Gaussian state is five moments (:class:`GaussianState`): the
means mu = (⟨X⟩, ⟨P⟩) and the entries of the symmetrized covariance matrix
sigma_jk = ½⟨{r_j − mu_j, r_k − mu_k}⟩, so the vacuum is (0, I/2).
Quadratic Hamiltonians act as affine symplectic maps on the moments, which
this module computes in closed form (see :class:`Flow`) for whole arrays of
times at once; linear terms, singular and hyperbolic quadratic parts all go
through the same three-branch formula.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import QuadraticOperator, flow_weights, to_quadrature_form

# Symplectic form for r = (X, P): [r_j, r_k] = i * OMEGA_jk.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SQRT2 = np.sqrt(2.0)


class GaussianState(NamedTuple):
    """Mean (⟨X⟩, ⟨P⟩) and covariance entries (σ_xx, σ_xp, σ_pp) of a state.

    Each field is a scalar or an array over a grid of protocol times; the
    array functions below broadcast them like numpy operands. ``mu`` and
    ``sigma`` build the mean vector and the covariance matrix on access,
    quadrature indices first; sigma is symmetric by construction.
    """

    mx: np.ndarray
    mp: np.ndarray
    sxx: np.ndarray
    sxp: np.ndarray
    spp: np.ndarray

    @property
    def mu(self) -> np.ndarray:
        return np.array([self.mx, self.mp])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([[self.sxx, self.sxp], [self.sxp, self.spp]])

    def uncertainty_defect(self) -> float:
        """−min eigenvalue of sigma + iΩ/2 (≤ ~1e-12 for physical states)."""
        h = self.sigma + 0.5j * OMEGA
        return float(-np.min(np.linalg.eigvalsh(h)))

    def purity_defect(self) -> float:
        """|det(sigma) − 1/4|, zero for pure states."""
        return float(abs(np.linalg.det(self.sigma) - 0.25))


def coherent(alpha: complex) -> GaussianState:
    """Coherent state |alpha⟩: mu = √2 (Re α, Im α), sigma = I/2."""
    alpha = complex(alpha)
    return GaussianState(_SQRT2 * alpha.real, _SQRT2 * alpha.imag, 0.5, 0.0, 0.5)


class Form(NamedTuple):
    """Entries (G_xx, G_xp, G_pp, v_x, v_p) of O = ½ rᵀG r + vᵀr + c0.

    Either floats (one operator) or arrays (a family of operators over a
    grid); c0 is left out because no variance depends on it.
    """

    gxx: np.ndarray
    gxp: np.ndarray
    gpp: np.ndarray
    vx: np.ndarray
    vp: np.ndarray

    @classmethod
    def of(cls, op: QuadraticOperator) -> "Form":
        g_mat, v, _ = to_quadrature_form(op)
        return cls(float(g_mat[0, 0]), float(g_mat[0, 1]), float(g_mat[1, 1]),
                   float(v[0]), float(v[1]))


class Flow:
    """Closed-form phase-space flow of one Hermitian quadratic Hamiltonian.

    Writing H = ½ rᵀG r + vᵀr + c0 gives dr/dt = Ω(G r + v). M = ΩG is
    traceless for symmetric G, so M² = −det G · I and

        exp(Mt) = c·I + s·M,   ∫₀ᵗ exp(Mτ) dτ = s·I + q·M,

    with (c, s, q) = flow_weights(det G, t) (Weedbrook et al., "Gaussian
    quantum information", Rev. Mod. Phys. 84, 621). The quadrature form
    is taken once, by the caller (``Flow(Form.of(H))``); :meth:`map` then
    costs a few dozen elementwise operations for any number of times.
    """

    def __init__(self, f: Form):
        # M = ΩG, u = Ωv and M u, with Ω = [[0, 1], [−1, 0]].
        self.m = (f.gxp, f.gpp, -f.gxx, -f.gxp)
        self.u = (f.vp, -f.vx)
        self.m_u = (f.gxp * f.vp - f.gpp * f.vx, -f.gxx * f.vp + f.gxp * f.vx)
        self.det = f.gxx * f.gpp - f.gxp * f.gxp

    def map(self, t) -> tuple[tuple, tuple]:
        """Entries ((S_xx, S_xp, S_px, S_pp), (d_x, d_p)) of exp(−iHt): r ↦ S r + d.

        Each entry has the shape of t. At t = 0, S is exactly I and d = 0.
        """
        c, s, q = flow_weights(self.det, t)
        m00, m01, m10, m11 = self.m
        return (
            (c + s * m00, s * m01, s * m10, c + s * m11),
            (s * self.u[0] + q * self.m_u[0], s * self.u[1] + q * self.m_u[1]),
        )

    def apply(self, m: GaussianState, t) -> GaussianState:
        """The state after exp(−iHt): mu ↦ S mu + d, sigma ↦ S sigma Sᵀ."""
        (s00, s01, s10, s11), (dx, dp) = self.map(t)
        a00 = s00 * m.sxx + s01 * m.sxp  # A = S sigma
        a01 = s00 * m.sxp + s01 * m.spp
        a10 = s10 * m.sxx + s11 * m.sxp
        a11 = s10 * m.sxp + s11 * m.spp
        return GaussianState(
            s00 * m.mx + s01 * m.mp + dx,
            s10 * m.mx + s11 * m.mp + dp,
            a00 * s00 + a01 * s01,
            a00 * s10 + a01 * s11,
            a10 * s10 + a11 * s11,
        )


def evolution_map(
    hamiltonian: QuadraticOperator, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Affine phase-space map (S, d) of exp(−iHt): r ↦ S r + d.

    S is symplectic, and exactly the identity (with d = 0) at t = 0.
    """
    (s00, s01, s10, s11), d = Flow(Form.of(hamiltonian)).map(float(t))
    return np.array([[s00, s01], [s10, s11]]), np.array(d)


def evolve(state: GaussianState, hamiltonian: QuadraticOperator, t: float) -> GaussianState:
    """Evolve a Gaussian state under exp(−iHt): mu ↦ S mu + d, sigma ↦ S sigma Sᵀ."""
    return Flow(Form.of(hamiltonian)).apply(state, float(t))


def photon_number(m: GaussianState) -> np.ndarray:
    """⟨a†a⟩ = (sigma_xx + sigma_pp + mu_x² + mu_p² − 1)/2, over the state's arrays."""
    return 0.5 * (m.sxx + m.spp + (m.mx * m.mx + m.mp * m.mp) - 1.0)


def expectation(state: GaussianState, op: QuadraticOperator) -> float:
    """⟨O⟩ = ½Tr(G sigma) + ½ muᵀG mu + vᵀmu + c0 for Hermitian quadratic O."""
    g_mat, v, c0 = to_quadrature_form(op)
    return float(
        0.5 * np.trace(g_mat @ state.sigma)
        + 0.5 * state.mu @ g_mat @ state.mu
        + v @ state.mu
        + c0
    )


def variance_quadratic(state: GaussianState, op: QuadraticOperator) -> float:
    """Variance of a Hermitian quadratic operator in a Gaussian state.

    Writing O = ½ rᵀG r + vᵀr + c0 and w = G mu + v, Wick factorization of
    the centered moments (each ordered pairing carries the two-point function
    sigma + iΩ/2) collapses to the closed form

        Var[O] = ½ Tr(G sigma G sigma) + ⅛ Tr(G Ω G Ω) + wᵀ sigma w.

    The ⅛ Tr(GΩGΩ) = −¼ det G piece is the exact operator-ordering
    (commutator) correction to the naive symmetric-moment result; it is what
    makes Var[a†a] vanish on the vacuum and equal |α|² on a coherent state.
    The formula is validated against the truncated number-basis simulator on
    the regression grid rather than trusted (see the test suite).
    """
    return float(quadratic_variance(Form.of(op), state))


def quadratic_variance(f: Form, m: GaussianState) -> np.ndarray:
    """Array form of :func:`variance_quadratic`; f and m broadcast together."""
    wx = f.gxx * m.mx + f.gxp * m.mp + f.vx  # w = G mu + v
    wp = f.gxp * m.mx + f.gpp * m.mp + f.vp
    b00 = f.gxx * m.sxx + f.gxp * m.sxp  # B = G sigma
    b01 = f.gxx * m.sxp + f.gxp * m.spp
    b10 = f.gxp * m.sxx + f.gpp * m.sxp
    b11 = f.gxp * m.sxp + f.gpp * m.spp
    return (
        0.5 * (b00 * b00 + 2.0 * b01 * b10 + b11 * b11)
        - 0.25 * (f.gxx * f.gpp - f.gxp * f.gxp)
        + (m.sxx * wx * wx + 2.0 * m.sxp * wx * wp + m.spp * wp * wp)
    )


def quadrature_stats(state: GaussianState) -> tuple[float, float]:
    """(⟨P⟩, Var P) of the momentum quadrature."""
    return float(state.mp), float(state.spp)
