"""Brute-force truncated number-basis simulator.

This module is the independent ground truth for everything the Gaussian
engine and the metrology formulas compute in closed form: states are complex
amplitude vectors in a truncated Fock basis, Hamiltonians are dense
Hermitian matrices, and evolution goes through an eigendecomposition (one
decomposition serves every evolution time). Dense linear algebra caps the
useful truncation around a few hundred levels, which is all the desk-scale
parameter ranges here need.

Truncation honesty is enforced, not assumed: after every evolution the
amplitude mass in the top five levels must stay below TAIL_TOL, otherwise
TruncationNotConvergedError is raised. Protocol-level helpers escalate the
dimension (×2 up to MAX_DIM) until the check passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError, TruncationNotConvergedError
from .operators import QuadraticOperator

TAIL_TOL = 1e-10
DEFAULT_DIM = 60
MAX_DIM = 480

_SQRT2 = math.sqrt(2.0)


@dataclass
class FockState:
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tail_mass(self) -> float:
        """Probability mass in the top five truncation levels."""
        return float(np.sum(np.abs(self.amps[-5:]) ** 2))

    def overlap(self, other: "FockState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator: a|n⟩ = √n |n−1⟩."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def build_matrix(op: QuadraticOperator, dim: int) -> np.ndarray:
    """Dense matrix of a quadratic operator in the first `dim` number states."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
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


def quadrature_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, P) matrices with X = (a + a†)/√2, P = i(a† − a)/√2."""
    a = ladder(dim)
    x = (a + a.T) / _SQRT2
    p = 1j * (a.T - a) / _SQRT2
    return x, p


def coherent_fock(alpha: complex, dim: int) -> FockState:
    """Coherent state |alpha⟩ truncated to `dim` levels and renormalized.

    Amplitudes follow the stable recurrence c_n = c_{n−1} α/√n. The missing
    mass beyond the truncation must itself satisfy the tail tolerance.
    """
    alpha = complex(alpha)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    state = FockState(amps)
    if state.tail_mass() + abs(1.0 - state.norm() ** 2) > TAIL_TOL:
        raise TruncationNotConvergedError(
            f"coherent state |alpha|={abs(alpha):.3g} does not fit in dim={dim}"
        )
    state.amps = state.amps / state.norm()
    return state


class Propagator:
    """exp(−iHt) applied through one reusable eigendecomposition of H."""

    def __init__(self, hamiltonian: QuadraticOperator, dim: int):
        h = build_matrix(hamiltonian, dim)
        herm_defect = np.max(np.abs(h - h.conj().T))
        if herm_defect > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("propagator requires a Hermitian generator")
        self.eigvals, self.eigvecs = np.linalg.eigh(h)
        self.dim = dim

    def apply(self, state: FockState, t: float) -> FockState:
        phases = np.exp(-1j * self.eigvals * float(t))
        amps = self.eigvecs @ (phases * (self.eigvecs.conj().T @ state.amps))
        out = FockState(amps)
        if out.tail_mass() > TAIL_TOL:
            raise TruncationNotConvergedError(
                f"tail mass {out.tail_mass():.3e} exceeds {TAIL_TOL:.1e} at dim={self.dim}"
            )
        return out


def evolve_fock(state: FockState, hamiltonian: QuadraticOperator, t: float) -> FockState:
    """Apply exp(−iHt) to a Fock-basis state (H Hermitian)."""
    return Propagator(hamiltonian, state.dim).apply(state, t)


def expectation_fock(state: FockState, op: QuadraticOperator) -> float:
    m = build_matrix(op, state.dim)
    return float(np.real(np.vdot(state.amps, m @ state.amps)))


def variance_fock(state: FockState, op: QuadraticOperator) -> float:
    m = build_matrix(op, state.dim)
    m_psi = m @ state.amps
    mean = np.real(np.vdot(state.amps, m_psi))
    return float(np.real(np.vdot(m_psi, m_psi)) - mean**2)


def fock_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and symmetrized covariance matrix of a state."""
    x, p = quadrature_matrices(state.dim)
    psi = state.amps
    mx = float(np.real(np.vdot(psi, x @ psi)))
    mp = float(np.real(np.vdot(psi, p @ psi)))
    xx = float(np.real(np.vdot(psi, x @ (x @ psi))))
    pp = float(np.real(np.vdot(psi, p @ (p @ psi))))
    xp = float(np.real(np.vdot(psi, 0.5 * (x @ (p @ psi) + p @ (x @ psi)))))
    mu = np.array([mx, mp])
    sigma = np.array([[xx - mx * mx, xp - mx * mp], [xp - mx * mp, pp - mp * mp]])
    return mu, sigma


def mean_photon_fock(state: FockState) -> float:
    n = np.arange(state.dim)
    return float(np.sum(n * np.abs(state.amps) ** 2))


def protocol_state_fock(spec, theta: float, dim: int) -> FockState:
    """|ψ(θ)⟩ = exp(−i θ t_θ H_θ) exp(−i t_c H_c) |α⟩ at fixed truncation."""
    psi = coherent_fock(spec.alpha, dim)
    psi = evolve_fock(psi, spec.Hc, spec.t_c)
    return evolve_fock(psi, spec.Htheta, theta * spec.t_theta)


def converged_protocol_state(
    spec, theta: float, start_dim: int = DEFAULT_DIM, max_dim: int = MAX_DIM
) -> FockState:
    """Protocol state with the truncation escalated (×2) until the tail check passes."""
    dim = start_dim
    while True:
        try:
            return protocol_state_fock(spec, theta, dim)
        except TruncationNotConvergedError:
            if dim >= max_dim:
                raise
            dim = min(2 * dim, max_dim)


def qfi_numeric(
    spec,
    dtheta: float = 1e-4,
    start_dim: int = DEFAULT_DIM,
    max_dim: int = MAX_DIM,
) -> float:
    """Fidelity-based numeric quantum Fisher information.

    Runs the full protocol at θ0 ± δ and θ0 ± δ/2 and forms
    8(1 − |⟨ψ(θ−δ)|ψ(θ+δ)⟩|)/(2δ)², refined once by Richardson
    extrapolation in δ². The preparation stage is computed once per
    truncation; only the encoding phases differ between branches.
    """
    if not (1e-6 <= dtheta <= 1e-2):
        raise ValueError("dtheta must lie in [1e-6, 1e-2]")
    dim = start_dim
    while True:
        try:
            return _qfi_numeric_at_dim(spec, dtheta, dim)
        except TruncationNotConvergedError:
            if dim >= max_dim:
                raise
            dim = min(2 * dim, max_dim)


def _qfi_numeric_at_dim(spec, dtheta: float, dim: int) -> float:
    psi0 = coherent_fock(spec.alpha, dim)
    psi_prep = Propagator(spec.Hc, dim).apply(psi0, spec.t_c)
    encoder = Propagator(spec.Htheta, dim)

    def fisher(delta: float) -> float:
        lo = encoder.apply(psi_prep, (spec.theta0 - delta) * spec.t_theta)
        hi = encoder.apply(psi_prep, (spec.theta0 + delta) * spec.t_theta)
        fid = abs(lo.overlap(hi))
        return 8.0 * (1.0 - fid) / (2.0 * delta) ** 2

    f1 = fisher(dtheta)
    f2 = fisher(0.5 * dtheta)
    return (4.0 * f2 - f1) / 3.0


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
