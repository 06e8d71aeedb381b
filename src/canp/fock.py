"""Brute-force truncated number-basis simulator.

This module is the independent ground truth for everything the Gaussian
engine and the metrology formulas compute in closed form: states are complex
amplitude vectors in a truncated Fock basis, and a quadratic operator is the
five bands its six coefficients fill. Expectations and variances are O(dim)
banded sums; a dense matrix is built only to be decomposed. Evolution goes
through an eigendecomposition of only the levels each Hamiltonian couples
(:class:`Propagator`), real symmetric (float64) when all six coefficients
are real, which every shipped H_c, a†a and X are, and complex Hermitian
otherwise. A small bounded memo, the module's only cache, decomposes each
(Hamiltonian, truncation) once per process and hands it to every evolution
time and every caller of the run. Dense linear algebra caps the useful
truncation around a few hundred levels, which the desk-scale ranges here fit.

Truncation honesty is enforced, not assumed: after every evolution the
amplitude mass in the top five levels must stay below TAIL_TOL, otherwise
TruncationNotConvergedError is raised. Protocol-level helpers escalate the
dimension (×2 up to MAX_DIM) until the check passes. Their only settings
are those bounds (start_dim, max_dim). The numeric QFI is the exact δ → 0
limit of the fidelity: a variance in the prepared number-basis state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotHermitianError, NotPositiveError, TruncationNotConvergedError
from .operators import QuadraticOperator

TAIL_TOL = 1e-10
DEFAULT_DIM = 60
MAX_DIM = 480
# Decompositions kept by the propagator memo. The 20-point validate grid
# needs 15 distinct (H, dim) pairs; the largest entry (H_c at dim 480, split
# into two real blocks) holds 2 × 240² float64 ≈ 0.9 MB of eigenvectors.
PROPAGATOR_CACHE_SIZE = 16

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

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator: a|n⟩ = √n |n−1⟩."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _bands(op: QuadraticOperator, dim: int, start: int = 0, step: int = 1):
    """(real, diagonal, bands) of op on the number states start, start + step, … < dim.

    `real`: all six coefficients are real, so every entry is float64. The
    diagonal is c_n·n + c_1. Each band (b, above, below, values) puts
    above·values at ⟨n|op|n+b⟩ and below·values at ⟨n+b|op|n⟩, by lower kept
    level n: √(n+1) for a and a†, √((n+1)(n+2)) for a² and a†². A band is kept
    when its offset is a multiple of `step`; (p, 2) gives the parity-p block.
    """
    coeffs = op.coeffs()
    real = all(c.imag == 0.0 for c in coeffs)
    c_n, c_aa, c_adad, c_a, c_ad, c_1 = (c.real for c in coeffs) if real else coeffs
    root = np.sqrt(np.arange(1.0, dim))  # √(n+1), n = 0 … dim−2
    diagonal = c_n * np.arange(start, dim, step, dtype=float) + c_1
    bands = tuple((offset // step, above, below, values[start::step])
                  for offset, above, below, values in ((1, c_a, c_ad, root),
                                                       (2, c_aa, c_adad, root[:-1] * root[1:]))
                  if offset % step == 0)
    return real, diagonal, bands


def build_matrix(op: QuadraticOperator, dim: int, start: int = 0, step: int = 1) -> np.ndarray:
    """Matrix of op on the number states start, start + step, … < dim, filled
    from :func:`_bands` (float64 when all six coefficients are real)."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    real, diagonal, bands = _bands(op, dim, start, step)
    k = diagonal.size
    m = np.zeros((k, k), dtype=float if real else complex)
    flat = m.reshape(-1)  # band b: flat[b:(k−b)k:k+1] above the diagonal, flat[bk::k+1] below
    flat[::k + 1] = diagonal
    for b, above, below, values in bands:
        flat[b:(k - b) * k:k + 1] = above * values
        flat[b * k::k + 1] = below * values
    return m


def _apply(op: QuadraticOperator, amps: np.ndarray) -> np.ndarray:
    """op|ψ⟩ in O(dim), from the bands of op; no matrix is formed."""
    _, diagonal, bands = _bands(op, amps.size)
    out = diagonal * amps
    for b, above, below, values in bands:
        out[:-b] += above * values * amps[b:]
        out[b:] += below * values * amps[:-b]
    return out


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a complex vector v.

    A real m multiplies the real and imaginary parts of v in one real
    product instead of being cast to complex on every call.
    """
    if np.iscomplexobj(m):
        return m @ v
    parts = m @ np.stack((v.real, v.imag), axis=1)
    return parts[:, 0] + 1j * parts[:, 1]


def coherent_fock(alpha: complex, dim: int) -> FockState:
    """Coherent state |alpha⟩ truncated to `dim` levels and renormalized.

    The amplitudes c_n = e^{−|α|²/2} Π_{k≤n} α/√k are one running product;
    the missing mass beyond the truncation must satisfy the tail tolerance.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    factors = np.empty(dim, dtype=complex)
    factors[0] = math.exp(-0.5 * (abs(alpha) * abs(alpha)))
    factors[1:] = alpha / np.sqrt(np.arange(1.0, dim))
    state = FockState(np.cumprod(factors))
    norm = state.norm()
    if state.tail_mass() + abs(1.0 - norm * norm) > TAIL_TOL:
        raise TruncationNotConvergedError(
            f"coherent state |alpha|={abs(alpha):.3g} does not fit in dim={dim}"
        )
    state.amps /= norm
    return state


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Propagator:
    """exp(−iHt) applied through the smallest decomposition H's structure allows.

    - Diagonal H (only c_n and c_1 nonzero, e.g. a†a): the phases of
      c_n·n + c_1 multiply the amplitudes; no matrix, no eigendecomposition.
    - No linear term (c_a = c_ad = 0, every shipped H_c): H couples n only to
      n ± 2, so the even and odd levels are two blocks of half the size,
      each filled, decomposed and applied on its own.
    - Otherwise: one dense eigendecomposition.

    The stored arrays are read-only because one instance is shared by every
    caller that asks :func:`propagator` for the same (H, dim).
    """

    def __init__(self, hamiltonian: QuadraticOperator, dim: int):
        if not hamiltonian.is_hermitian():
            raise NotHermitianError("propagator requires a Hermitian generator")
        if dim < 2:
            raise ValueError("dim must be at least 2")
        h = hamiltonian
        no_linear = h.c_a == 0 and h.c_ad == 0
        # Each block is (its levels, eigenvalues, eigenvectors or None if diagonal).
        if no_linear and h.c_aa == 0 and h.c_adad == 0:
            energies = h.c_n.real * np.arange(float(dim)) + h.c_1.real
            self._blocks = ((slice(None), _read_only(energies), None),)
        else:
            # (first level, level step) of each block.
            parts = ((0, 2), (1, 2)) if no_linear else ((0, 1),)
            self._blocks = tuple(
                (slice(start, None, step),
                 *map(_read_only, np.linalg.eigh(build_matrix(h, dim, start, step))))
                for start, step in parts
            )
        self.dim = dim

    def apply(self, state: FockState, t: float) -> FockState:
        amps = np.empty(self.dim, dtype=complex)
        for levels, eigvals, eigvecs in self._blocks:
            phases = np.exp(-1j * eigvals * float(t))
            psi = state.amps[levels]
            if eigvecs is None:
                amps[levels] = phases * psi
            else:
                # V†ψ = conj(Vᵀ conj ψ): no conjugated copy of V is made or stored.
                coeffs = _matvec(eigvecs.T, psi.conj()).conj()
                amps[levels] = _matvec(eigvecs, phases * coeffs)
        out = FockState(amps)
        if out.tail_mass() > TAIL_TOL:
            raise TruncationNotConvergedError(
                f"tail mass {out.tail_mass():.3e} exceeds {TAIL_TOL:.1e} at dim={self.dim}"
            )
        return out


@lru_cache(maxsize=PROPAGATOR_CACHE_SIZE)
def propagator(hamiltonian: QuadraticOperator, dim: int) -> Propagator:
    """The shared :class:`Propagator` of (H, dim), built on first request."""
    return Propagator(hamiltonian, dim)


def evolve_fock(state: FockState, hamiltonian: QuadraticOperator, t: float) -> FockState:
    """Apply exp(−iHt) to a Fock-basis state (H Hermitian)."""
    return propagator(hamiltonian, state.dim).apply(state, t)


def expectation_fock(state: FockState, op: QuadraticOperator) -> float:
    return float(np.real(np.vdot(state.amps, _apply(op, state.amps))))


def variance_fock(state: FockState, op: QuadraticOperator) -> float:
    m_psi = _apply(op, state.amps)
    mean = np.real(np.vdot(state.amps, m_psi))
    return float(np.real(np.vdot(m_psi, m_psi)) - mean * mean)


def fock_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and symmetrized covariance matrix of a state.

    Built from ⟨a†a⟩ and the O(dim) sums ⟨a⟩ = Σ √(n+1) ψ̄_n ψ_{n+1} and
    ⟨a²⟩ = Σ √((n+1)(n+2)) ψ̄_n ψ_{n+2}: ⟨X⟩ + i⟨P⟩ = √2⟨a⟩,
    ⟨X²⟩, ⟨P²⟩ = ⟨a†a⟩ + ½ ± Re⟨a²⟩ and ½⟨XP + PX⟩ = Im⟨a²⟩.
    """
    psi = state.amps
    root = np.sqrt(np.arange(1.0, state.dim))  # √(n+1), n = 0 … dim−2
    a1 = np.vdot(psi[:-1], root * psi[1:])
    a2 = np.vdot(psi[:-2], root[:-1] * root[1:] * psi[2:])
    nbar = mean_photon_fock(state)
    mu = _SQRT2 * np.array([a1.real, a1.imag])
    second = np.array([[nbar + 0.5 + a2.real, a2.imag], [a2.imag, nbar + 0.5 - a2.real]])
    return mu, second - np.outer(mu, mu)


def mean_photon_fock(state: FockState) -> float:
    n = np.arange(state.dim)
    return float(np.sum(n * np.abs(state.amps) ** 2))


def _prepared_fock(spec, dim: int) -> FockState:
    """|ψ_prep⟩ = exp(−i t_c H_c) |α⟩ at fixed truncation."""
    return evolve_fock(coherent_fock(spec.alpha, dim), spec.Hc, spec.t_c)


def _escalate(evaluate, start_dim: int, max_dim: int):
    """evaluate(dim) from start_dim, doubling dim up to max_dim while the tail check fails."""
    dim = start_dim
    while True:
        try:
            return evaluate(dim)
        except TruncationNotConvergedError:
            if dim >= max_dim:
                raise
            dim = min(2 * dim, max_dim)


def converged_protocol_state(
    spec, theta: float, start_dim: int = DEFAULT_DIM, max_dim: int = MAX_DIM
) -> FockState:
    """|ψ(θ)⟩ = exp(−i θ t_θ H_θ) |ψ_prep⟩, with the truncation escalated (×2)
    until the tail check passes."""
    return _escalate(
        lambda dim: evolve_fock(_prepared_fock(spec, dim), spec.Htheta, theta * spec.t_theta),
        start_dim, max_dim,
    )


def qfi_numeric(spec, start_dim: int = DEFAULT_DIM, max_dim: int = MAX_DIM) -> float:
    """Number-basis quantum Fisher information 4 t_θ² Var[H_θ] in |ψ_prep⟩.

    ψ(θ) = exp(−i θ t_θ H_θ) ψ_prep is pure, so the fidelity susceptibility
    8(1 − |⟨ψ(θ−δ)|ψ(θ+δ)⟩|)/(2δ)² tends to 4 t_θ² Var_ψprep[H_θ] exactly
    as δ → 0 (Braunstein & Caves 1994) and the encoding need not be run.
    The truncation escalates until the prepared state passes the tail check.
    """
    scale = 4.0 * (spec.t_theta * spec.t_theta)
    return _escalate(
        lambda dim: scale * variance_fock(_prepared_fock(spec, dim), spec.Htheta),
        start_dim, max_dim,
    )


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
