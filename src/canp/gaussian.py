"""Exact Gaussian-state dynamics under quadratic Hamiltonians.

A single-mode Gaussian state is five moments (:class:`GaussianState`): the
means mu = (⟨X⟩, ⟨P⟩) and the entries of the symmetrized covariance matrix
sigma_jk = ½⟨{r_j − mu_j, r_k − mu_k}⟩, so the vacuum is (0, I/2).
Quadratic Hamiltonians act as affine symplectic maps on the moments, which
this module computes in closed form (see :class:`Flow`) for whole arrays of
times at once; linear terms, singular and hyperbolic quadratic parts all go
through the same three-branch formula. Every function takes the operator
as its :class:`canp.operators.Quadratic` form (G, v, c0).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import Quadratic, flow_weights

_SQRT2 = float(np.sqrt(2.0))


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

    def uncertainty_defect(self) -> np.ndarray:
        """−λ_min of sigma + iΩ/2, ≤ 0 up to rounding for physical states.

        The eigenvalues of that 2×2 Hermitian matrix are h ± r, with
        h = ½(σ_xx + σ_pp) and r = |(½(σ_xx − σ_pp), σ_xp, ½)|, so −λ_min is
        r + |h| where h ≤ 0. Where h > 0 the difference r − h would cancel,
        so it is taken in the product form −det/λ_max, that is
        (¼ + σ_xp² − σ_xx σ_pp)/(r + h).
        """
        h = 0.5 * (self.sxx + self.spp)
        r_plus = np.hypot(np.hypot(0.5 * (self.sxx - self.spp), self.sxp), 0.5) + np.abs(h)
        minus_det = 0.25 + self.sxp * self.sxp - self.sxx * self.spp
        return np.where(h > 0.0, minus_det / r_plus, r_plus)

    def purity_defect(self) -> np.ndarray:
        """|det(sigma) − 1/4|, zero for pure states."""
        return np.abs(self.sxx * self.spp - self.sxp * self.sxp - 0.25)


def coherent(alpha) -> GaussianState:
    """Coherent state |alpha⟩: mu = √2 (Re α, Im α), sigma = I/2; α may be an array.

    A complex α gives Python floats, so scalar arithmetic on the probe stays off numpy."""
    return GaussianState(_SQRT2 * alpha.real, _SQRT2 * alpha.imag, 0.5, 0.0, 0.5)


class Flow:
    """Closed-form phase-space flow of one quadratic Hamiltonian.

    Writing H = ½ rᵀG r + vᵀr + c0 gives dr/dt = Ω(G r + v). M = ΩG is
    traceless for symmetric G, so M² = −det G · I and

        exp(Mt) = c·I + s·M,   ∫₀ᵗ exp(Mτ) dτ = s·I + q·M,

    with (c, s, q) = flow_weights(det G, t) (Weedbrook et al., "Gaussian
    quantum information", Rev. Mod. Phys. 84, 621). Built once per
    Hamiltonian (or per stack of them, with array entries), :meth:`map` then
    costs a few dozen elementwise operations for any number of times.
    """

    def __init__(self, f: Quadratic):
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


def evolution_map(hamiltonian: Quadratic, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine phase-space map (S, d) of exp(−iHt): r ↦ S r + d.

    S is symplectic, and exactly the identity (with d = 0) at t = 0.
    """
    (s00, s01, s10, s11), d = Flow(hamiltonian).map(float(t))
    return np.array([[s00, s01], [s10, s11]]), np.array(d)


def evolve(state: GaussianState, hamiltonian: Quadratic, t: float) -> GaussianState:
    """Evolve a Gaussian state under exp(−iHt): mu ↦ S mu + d, sigma ↦ S sigma Sᵀ."""
    return Flow(hamiltonian).apply(state, float(t))


def photon_number(m: GaussianState) -> np.ndarray:
    """⟨a†a⟩ = (sigma_xx + sigma_pp + mu_x² + mu_p² − 1)/2, over the state's arrays."""
    return 0.5 * (m.sxx + m.spp + (m.mx * m.mx + m.mp * m.mp) - 1.0)


def variance_quadratic(state: GaussianState, op: Quadratic) -> float:
    """Variance of a quadratic operator in one Gaussian state; see :func:`quadratic_variance`."""
    return float(quadratic_variance(op, state))


def quadratic_variance(f: Quadratic, m: GaussianState) -> np.ndarray:
    """Var[F] in a Gaussian state, the diagonal of :func:`quadratic_covariance`."""
    return quadratic_covariance(f, f, m)


def quadratic_covariance(f: Quadratic, h: Quadratic, m: GaussianState) -> np.ndarray:
    """½⟨{F, H}⟩ − ⟨F⟩⟨H⟩ of two quadratic operators in a Gaussian state; all broadcast.

    Writing O = ½ rᵀG r + vᵀr + c0 and w = G mu + v for each, Wick factorization
    of the centered moments (each ordered pairing carries the two-point function
    sigma + iΩ/2) collapses to the bilinear closed form

        Cov[F, H] = ½ Tr(G_f sigma G_h sigma) + ⅛ Tr(G_f Ω G_h Ω) + w_fᵀ sigma w_h.

    On the diagonal ⅛ Tr(GΩGΩ) = −¼ det G is the exact operator-ordering
    correction to the symmetric-moment result. Cross terms are summed as equal
    halves, and H = F reuses F's w and G sigma: Cov[F, F] costs and rounds as Var.
    """
    (fxx, fxp, fpp, fx, fp, _), (hxx, hxp, hpp, hx, hp, _), (mx, mp, sxx, sxp, spp) = f, h, m
    wx, wp = fxx * mx + fxp * mp + fx, fxp * mx + fpp * mp + fp
    b00, b01, b10, b11 = (fxx * sxx + fxp * sxp, fxx * sxp + fxp * spp,
                          fxp * sxx + fpp * sxp, fxp * sxp + fpp * spp)
    ux, up, e00, e01, e10, e11 = (wx, wp, b00, b01, b10, b11) if h is f else (
        hxx * mx + hxp * mp + hx, hxp * mx + hpp * mp + hp, hxx * sxx + hxp * sxp,
        hxx * sxp + hxp * spp, hxp * sxx + hpp * sxp, hxp * sxp + hpp * spp)
    return (
        0.5 * (b00 * e00 + (b01 * e10 + b10 * e01) + b11 * e11)
        - 0.25 * (0.5 * (fxx * hpp + hxx * fpp) - fxp * hxp)
        + (sxx * wx * ux + (sxp * wx * up + sxp * ux * wp) + spp * wp * up)
    )


def quadrature_stats(state: GaussianState) -> tuple[float, float]:
    """(⟨P⟩, Var P) of the momentum quadrature."""
    return float(state.mp), float(state.spp)
