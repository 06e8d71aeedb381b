"""Exact Gaussian-state dynamics under quadratic Hamiltonians.

A single-mode Gaussian state is the pair (mu, sigma): the mean quadrature
vector (⟨X⟩, ⟨P⟩) and the symmetrized covariance matrix
sigma_jk = ½⟨{r_j − mu_j, r_k − mu_k}⟩, so the vacuum is (0, I/2).
Quadratic Hamiltonians act as affine symplectic maps on (mu, sigma), which
this module computes exactly via a single 3×3 homogeneous matrix exponential
(linear Hamiltonian terms and singular quadratic parts are handled uniformly
that way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .operators import QuadraticOperator, to_quadrature_form

# Symplectic form for r = (X, P): [r_j, r_k] = i * OMEGA_jk.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SQRT2 = np.sqrt(2.0)


@dataclass
class GaussianState:
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.array(self.mu, dtype=float).reshape(2)
        sigma = np.array(self.sigma, dtype=float).reshape(2, 2)
        if np.max(np.abs(sigma - sigma.T)) > 1e-13 * max(1.0, float(np.max(np.abs(sigma)))):
            raise ValueError("covariance matrix must be symmetric")
        self.sigma = 0.5 * (sigma + sigma.T)

    def copy(self) -> "GaussianState":
        return GaussianState(self.mu.copy(), self.sigma.copy())

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
    mu = _SQRT2 * np.array([alpha.real, alpha.imag])
    return GaussianState(mu, 0.5 * np.eye(2))


def vacuum() -> GaussianState:
    return coherent(0j)


def evolution_map(
    hamiltonian: QuadraticOperator, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Affine phase-space map (S, d) of exp(−iHt): r ↦ S r + d.

    From dr/dt = Ω(G r + v), both pieces come out of one homogeneous
    exponential exp(t [[ΩG, Ωv], [0, 0]]); S is symplectic by construction.
    """
    g_mat, v, _ = to_quadrature_form(hamiltonian)
    m = np.zeros((3, 3))
    m[:2, :2] = OMEGA @ g_mat
    m[:2, 2] = OMEGA @ v
    e = expm(m * float(t))
    return e[:2, :2], e[:2, 2]


def evolve(state: GaussianState, hamiltonian: QuadraticOperator, t: float) -> GaussianState:
    """Evolve a Gaussian state under exp(−iHt): mu ↦ S mu + d, sigma ↦ S sigma Sᵀ."""
    s_mat, d = evolution_map(hamiltonian, t)
    mu = s_mat @ state.mu + d
    sigma = s_mat @ state.sigma @ s_mat.T
    return GaussianState(mu, 0.5 * (sigma + sigma.T))


def mean_photon(state: GaussianState) -> float:
    """⟨a†a⟩ = (sigma_xx + sigma_pp + mu_x² + mu_p² − 1)/2."""
    return float(
        0.5 * (state.sigma[0, 0] + state.sigma[1, 1] + state.mu @ state.mu - 1.0)
    )


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

    The ⅛ Tr(GΩGΩ) piece is the exact operator-ordering (commutator)
    correction to the naive symmetric-moment result; it is what makes
    Var[a†a] vanish on the vacuum and equal |α|² on a coherent state. The
    formula is validated against the truncated number-basis simulator on the
    regression grid rather than trusted (see the test suite).
    """
    g_mat, v, _ = to_quadrature_form(op)
    w = g_mat @ state.mu + v
    gs = g_mat @ state.sigma
    go = g_mat @ OMEGA
    var = (
        0.5 * np.trace(gs @ gs)
        + 0.125 * np.trace(go @ go)
        + w @ state.sigma @ w
    )
    return float(var)


def covariance_quadratic(
    state: GaussianState, op_a: QuadraticOperator, op_b: QuadraticOperator
) -> float:
    """Symmetrized covariance ½⟨{δA, δB}⟩ of two Hermitian quadratics."""
    ga, va, _ = to_quadrature_form(op_a)
    gb, vb, _ = to_quadrature_form(op_b)
    wa = ga @ state.mu + va
    wb = gb @ state.mu + vb
    cov = (
        0.5 * np.trace(ga @ state.sigma @ gb @ state.sigma)
        + 0.125 * np.trace(ga @ OMEGA @ gb @ OMEGA)
        + wa @ state.sigma @ wb
    )
    return float(cov)


def quadrature_stats(state: GaussianState) -> tuple[float, float]:
    """(⟨P⟩, Var P) of the momentum quadrature."""
    return float(state.mu[1]), float(state.sigma[1, 1])
