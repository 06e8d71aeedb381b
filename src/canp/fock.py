"""Brute-force truncated number-basis simulator.

This module is the independent ground truth for everything the Gaussian
engine and the metrology formulas compute in closed form: states are complex
amplitude vectors in a truncated Fock basis, and a quadratic operator is its
band table, the diagonal and each nonzero band above it, which only
:func:`_bands` reads from its (G, v, c0) form. Expectations and variances are
O(dim) banded sums; a dense matrix is built only to be decomposed.
Evolution goes through an eigendecomposition of only the levels the bands
couple (:class:`Propagator`), real symmetric (float64) when G_xp = v_p = 0,
which holds for every shipped H_c, a†a and X, and complex Hermitian otherwise.
One decomposition evolves a batch of states or times in one product per
block; nothing is cached between calls. Dense linear algebra caps the useful
truncation around a few hundred levels, which the desk-scale ranges here fit.

Truncation honesty is enforced along the whole path, not assumed: the mass
in the top TAIL_LEVELS levels must stay below TAIL_TOL at the end of an
evolution and at PATH_SAMPLES − 1 evenly spaced times before it, so a state
that leaves the truncation and comes back is refused. :func:`converged_states`
escalates the dimension (×2 up to MAX_DIM) for all preparation times of one
(H_c, H_θ, α) at once. The numeric QFI is the exact δ → 0 limit of the
fidelity: a variance in the prepared number-basis state.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import NotPositiveError, TruncationNotConvergedError
from .operators import Quadratic

TAIL_TOL = 1e-10
TAIL_LEVELS = 5  # the top levels whose mass is the tail
PATH_SAMPLES = 16
DEFAULT_DIM = 60
MAX_DIM = 480

_SQRT2 = math.sqrt(2.0)


class FockState:
    """Complex amplitudes over a truncated number basis, normalised in place by coherent_fock."""

    __slots__ = ("amps",)

    def __init__(self, amps) -> None:
        self.amps = np.asarray(amps, dtype=complex).reshape(-1)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _bands(op: Quadratic, dim: int):
    """(diagonal, bands) of op = c_n a†a + c_aa a² + c̄_aa a†² + c_a a + c̄_a a† + c_1.

    On the levels n < dim, from X = (a + a†)/√2 and P = i(a† − a)/√2:
    c_n = (G_xx + G_pp)/2, c_aa = (G_xx − G_pp)/4 − iG_xp/2 (real if G_xp = 0),
    c_a = (v_x − iv_p)/√2 (real if v_p = 0) and c_1 = c0 + c_n/2. The
    diagonal is c_n·n + c_1. Each band (b, values) puts values at ⟨n|op|n+b⟩
    and their conjugates at ⟨n+b|op|n⟩, by lower level n: c_a√(n+1) at b = 1,
    c_aa√((n+1)(n+2)) at b = 2. A band whose coefficient is 0 is left out.
    """
    gxx, gxp, gpp, vx, vp, c0 = op
    c_n = 0.5 * (gxx + gpp)
    c_aa = complex(0.25 * (gxx - gpp), -0.5 * gxp) if gxp else 0.25 * (gxx - gpp)
    c_a = complex(vx, -vp) / _SQRT2 if vp else vx / _SQRT2
    root = np.sqrt(np.arange(1.0, dim))  # √(n+1), n = 0 … dim−2
    diagonal = c_n * np.arange(dim, dtype=float) + (c0 + 0.5 * c_n)
    bands = ((1, c_a, root), (2, c_aa, root[:-1] * root[1:]))
    return diagonal, tuple((b, c * values) for b, c, values in bands if c != 0)


def build_matrix(op: Quadratic, dim: int, start: int = 0, step: int = 1) -> np.ndarray:
    """Matrix of op on the number states start, start + step, … < dim, filled
    from :func:`_bands`: float64 when every band is, so when G_xp = v_p = 0.
    A band is kept when its offset is a multiple of `step`; (p, 2) gives
    the parity-p block."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    diagonal, bands = _bands(op, dim)
    diagonal = diagonal[start::step]
    k = diagonal.size
    m = np.zeros((k, k), dtype=np.result_type(diagonal, *(values for _, values in bands)))
    flat = m.reshape(-1)  # band b: flat[b:(k−b)k:k+1] above the diagonal, flat[bk::k+1] below
    flat[::k + 1] = diagonal
    for offset, values in bands:
        if offset % step == 0:
            b, values = offset // step, values[start::step]
            flat[b:(k - b) * k:k + 1] = values
            flat[b * k::k + 1] = values.conj()
    return m


def _apply(op: Quadratic, amps: np.ndarray) -> np.ndarray:
    """op|ψ⟩ in O(dim), from the bands of op; no matrix is formed."""
    diagonal, bands = _bands(op, amps.size)
    out = diagonal * amps
    for b, values in bands:
        out[:-b] += values * amps[b:]
        out[b:] += values.conj() * amps[:-b]
    return out


def _matmul(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m for complex rows (…, k); a real m multiplies the real and
    imaginary parts of all rows in one real product, with no complex copy."""
    if np.iscomplexobj(m):
        return rows @ m
    parts = np.stack((rows.real, rows.imag)).reshape(-1, m.shape[0]) @ m
    parts = parts.reshape((2,) + rows.shape[:-1] + m.shape[1:])
    return parts[0] + 1j * parts[1]


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
    if np.sum(np.abs(state.amps[-TAIL_LEVELS:]) ** 2) + abs(1.0 - norm * norm) > TAIL_TOL:
        raise TruncationNotConvergedError(
            f"coherent state |alpha|={abs(alpha):.3g} does not fit in dim={dim}"
        )
    state.amps /= norm
    return state


class Propagator:
    """exp(−iHt) applied through the smallest decomposition H's bands allow.

    - No band (G = G_xx·I and v = 0, e.g. a†a): the phases of the
      diagonal multiply the amplitudes; no matrix, no eigendecomposition.
    - Only offset 2 (v = 0, every shipped H_c): H couples n only to
      n ± 2, so the even and odd levels are two blocks of half the size,
      each filled, decomposed and applied on its own.
    - Otherwise (an offset-1 band): one dense eigendecomposition.
    """

    def __init__(self, h: Quadratic, dim: int):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        diagonal, bands = _bands(h, dim)
        offsets = {b for b, _ in bands}
        # Each block is (its levels, eigenvalues, eigenvectors or None if diagonal).
        if not offsets:
            self._blocks = ((slice(None), diagonal, None),)
        else:
            # (first level, level step) of each block.
            parts = ((0, 2), (1, 2)) if offsets == {2} else ((0, 1),)
            self._blocks = tuple(
                (slice(start, None, step), *np.linalg.eigh(build_matrix(h, dim, start, step)))
                for start, step in parts
            )
        self.dim = dim

    def evolve(self, amps: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
        """(exp(−iHt)ψ, path tail) for rows ψ (…, dim) and times t broadcast against them.

        The path tail is the largest mass in the top TAIL_LEVELS levels at t
        and at k·t/PATH_SAMPLES, 0 < k < PATH_SAMPLES. Per block V†ψ is formed once;
        the samples take powers of e^{−iλt/PATH_SAMPLES} as phases and only
        the rows of V that hold the top levels. A diagonal H keeps the mass.
        """
        t = np.asarray(times, dtype=float)[..., None]
        shape = np.broadcast_shapes(amps.shape[:-1], t.shape[:-1])
        out = np.empty(shape + (self.dim,), dtype=complex)
        path = np.zeros((PATH_SAMPLES - 1,) + shape)  # top-level mass at each interior sample
        for levels, eigvals, eigvecs in self._blocks:
            psi = amps[..., levels]
            top = -np.count_nonzero(np.arange(self.dim)[levels] >= self.dim - TAIL_LEVELS)
            if eigvecs is None:
                out[..., levels] = np.exp(-1j * eigvals * t) * psi
                path += np.sum(np.abs(psi[..., top:]) ** 2, axis=-1)
                continue
            coeffs = _matmul(psi.conj(), eigvecs).conj()  # V†ψ = conj(Vᵀ conj ψ)
            out[..., levels] = _matmul(np.exp(-1j * eigvals * t) * coeffs, eigvecs.T)
            step = np.exp(-1j * eigvals * (t / PATH_SAMPLES))
            sampled = np.empty((PATH_SAMPLES - 1,) + shape + eigvals.shape, dtype=complex)
            sampled[0] = step * coeffs
            for k in range(1, PATH_SAMPLES - 1):  # V†ψ·e^{−iλkt/PATH_SAMPLES}
                np.multiply(sampled[k - 1], step, out=sampled[k])
            path += np.sum(np.abs(_matmul(sampled, eigvecs[top:].T)) ** 2, axis=-1)
        end = np.sum(np.abs(out[..., -TAIL_LEVELS:]) ** 2, axis=-1)
        return out, np.maximum(end, path.max(axis=0))


def variance_fock(state: FockState, op: Quadratic) -> float:
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


def converged_states(hc: Quadratic, htheta: Quadratic, alpha: complex, t_c,
                     t_encode: float = 0.0, start_dim: int = DEFAULT_DIM,
                     max_dim: int = MAX_DIM) -> list[tuple[int, FockState, FockState]]:
    """(dim, exp(−i t_c H_c)|α⟩, exp(−i t_encode H_θ) of it) for each time in t_c.

    dim is the first of start_dim, 2·start_dim, … ≤ max_dim where the probe
    and both evolutions pass the tail check along their paths. Each
    truncation decomposes H_c and H_θ once (H_θ not at all if t_encode = 0)
    for every time still pending. The error at max_dim names each pending
    time, the stage it failed in and the truncation.
    """
    t_c = np.asarray(t_c, dtype=float).reshape(-1)
    converged: list = [None] * t_c.size
    pending = np.arange(t_c.size)
    dim = start_dim
    while True:
        try:
            probe = coherent_fock(alpha, dim).amps
        except TruncationNotConvergedError:
            stages = np.full(pending.size, "probe")
        else:
            prepared, tails = Propagator(hc, dim).evolve(probe, t_c[pending])
            final, final_tails = (Propagator(htheta, dim).evolve(prepared, t_encode)
                                  if t_encode else (prepared, tails))
            stages = np.where(tails > TAIL_TOL, "preparation",
                              np.where(final_tails > TAIL_TOL, "encoding", ""))
            for i in np.flatnonzero(stages == ""):
                converged[pending[i]] = (dim, FockState(prepared[i]), FockState(final[i]))
        pending, stages = pending[stages != ""], stages[stages != ""]
        if not pending.size:
            return converged
        if dim >= max_dim:
            listed = ", ".join(f"t_c={t_c[i]:.6g} ({stage})" for i, stage in zip(pending, stages))
            raise TruncationNotConvergedError(
                f"tail mass above {TAIL_TOL:.1e} up to dim={dim}: {listed}", pending.tolist())
        dim = min(2 * dim, max_dim)


def converged_protocol_state(spec, theta: float, start_dim: int = DEFAULT_DIM,
                             max_dim: int = MAX_DIM) -> FockState:
    """|ψ(θ)⟩ = exp(−i θ t_θ H_θ) |ψ_prep⟩ from :func:`converged_states`."""
    [(_, _, final)] = converged_states(spec.Hc, spec.Htheta, spec.alpha, spec.t_c,
                                       theta * spec.t_theta, start_dim, max_dim)
    return final


def qfi_numeric(spec, start_dim: int = DEFAULT_DIM, max_dim: int = MAX_DIM) -> float:
    """Number-basis quantum Fisher information 4 t_θ² Var[H_θ] in |ψ_prep⟩.

    ψ(θ) = exp(−i θ t_θ H_θ) ψ_prep is pure, so the fidelity susceptibility
    8(1 − |⟨ψ(θ−δ)|ψ(θ+δ)⟩|)/(2δ)² tends to 4 t_θ² Var_ψprep[H_θ] exactly
    as δ → 0 (Braunstein & Caves 1994) and the encoding need not be run.
    The truncation escalates on the preparation alone.
    """
    [(_, prepared, _)] = converged_states(spec.Hc, spec.Htheta, spec.alpha, spec.t_c, 0.0,
                                          start_dim, max_dim)
    return 4.0 * (spec.t_theta * spec.t_theta) * variance_fock(prepared, spec.Htheta)


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
