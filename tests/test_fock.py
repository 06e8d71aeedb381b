import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm

from canp import Protocol, fock
from canp.errors import TruncationNotConvergedError
from canp.experiments import _model_values, load_config
from canp.gaussian import coherent, evolve, photon_number
from canp.metrology import ProtocolSpec
from canp.models import encoding_displacement, encoding_frequency, qrm_effective
from canp.operators import Quadratic
from quadrature_forms import (
    Ladder, NotPositiveError, density_matrix, expectation_fock, from_ladder, ladder, ladder_matrix,
    skew_information_general, to_ladder,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ALPHA = 0.3 + 1.0j
N = encoding_frequency()
X = encoding_displacement()


def dense_matrix(op: Quadratic, dim: int) -> np.ndarray:
    """Reference: the operator assembled from dense ladder-matrix products."""
    return ladder_matrix(to_ladder(op), dim)


def max_abs(op: Quadratic) -> float:
    return max(map(abs, op))


_COEFF = st.floats(-2.0, 2.0)
# A form whose matrix is real (G_xp = v_p = 0) or complex.
_OPERATOR = st.booleans().flatmap(
    lambda real: st.builds(
        Quadratic, _COEFF, st.just(0.0) if real else _COEFF, _COEFF, _COEFF,
        st.just(0.0) if real else _COEFF, _COEFF,
    )
)


class TestBuildMatrix:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_OPERATOR, st.sampled_from((2, 3, 7, 60)))
    def test_matches_dense_ladder_products(self, op, dim):
        m = fock.build_matrix(fock._bands(op, dim))
        real = op.gxp == 0.0 and op.vp == 0.0
        assert m.dtype == (np.float64 if real else np.complex128)
        want = dense_matrix(op, dim)
        off = ~np.eye(dim, dtype=bool)
        assert np.array_equal(m[off], want[off])
        # The band fill puts n itself on the diagonal; the product (a†a)_nn
        # is √n·√n, which may be off by an ulp.
        tol = 4.0 * np.finfo(float).eps * dim * max(1.0, max_abs(op))
        assert np.max(np.abs(np.diag(m) - np.diag(want))) <= tol

    def test_number_operator_diagonal(self):
        m = fock.build_matrix(fock._bands(N, 7))
        assert np.allclose(m, np.diag(np.arange(7.0)))

    def test_identity(self):
        m = fock.build_matrix(fock._bands(Quadratic(c0=1.0), 5))
        assert np.allclose(m, np.eye(5))

    def test_rabi_effective_element(self):
        # ⟨0|H_eff|2⟩ = −(g²/4)·√2 at omega = 1, g = 0.96
        m = fock.build_matrix(fock._bands(qrm_effective(1.0, 0.96), 6))
        want = -(0.96**2 / 4.0) * math.sqrt(2.0)
        assert m[0, 2] == pytest.approx(want, abs=1e-12)
        assert m[0, 2] == pytest.approx(-0.3258, abs=5e-5)

    def test_hermitian_input_gives_hermitian_matrix(self):
        m = fock.build_matrix(fock._bands(qrm_effective(1.3, 0.7), 40))
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * np.max(np.abs(m))


# A form with G_xp ≠ 0: c_aa = (G_xx − G_pp)/4 − iG_xp/2 = −0.25 − 0.25i.
GXP = Quadratic(gxx=1.0, gxp=0.5, gpp=2.0)


def band_kinds(op: Quadratic, dim: int = 8) -> list[tuple[int, np.dtype]]:
    """(offset, dtype) of each band fock._bands keeps."""
    return [(b, values.dtype) for b, values in fock._bands(op, dim)[1]]


class TestBandTable:
    def test_number_operator_has_no_bands(self):
        diagonal, bands = fock._bands(N, 8)
        assert bands == ()
        assert np.array_equal(diagonal, np.arange(8.0))

    def test_every_shipped_preparation_has_only_offset_two(self):
        models = [params for path in sorted(CONFIG_DIR.glob("*.json"))
                  for params in _model_values(load_config(str(path)))[2]]
        assert len(models) == 1 + 4 + 120 + 3 + 80 + 81 + 50
        for params in models:
            assert band_kinds(params.preparation()) == [(2, np.float64)], params

    def test_position_has_only_offset_one(self):
        [(b, values)] = fock._bands(X, 8)[1]
        assert b == 1 and values.dtype == np.float64
        assert np.array_equal(values, np.sqrt(np.arange(1.0, 8)) / math.sqrt(2.0))

    def test_gxp_keeps_a_complex_offset_two_band(self):
        [(b, values)] = fock._bands(GXP, 8)[1]
        root = np.sqrt(np.arange(1.0, 8))
        assert b == 2 and values.dtype == np.complex128
        assert np.array_equal(values, (-0.25 - 0.25j) * (root[:-1] * root[1:]))

    # The propagator reads its blocks off the offsets: none, no matrix; only
    # even, the two parity blocks; an odd one, one dense block.
    @pytest.mark.parametrize("op, kinds, blocks", [
        (N, [], []),
        (qrm_effective(1.0, 0.96), [(2, np.float64)], [(0, 2), (1, 2)]),
        (GXP, [(2, np.complex128)], [(0, 2), (1, 2)]),
        (X, [(1, np.float64)], [(0, 1)]),
        (Quadratic(gxx=1.0, gpp=0.5, vp=0.3), [(1, np.complex128), (2, np.float64)], [(0, 1)]),
    ], ids=["a†a", "H_c", "G_xp", "X", "linear+squeeze"])
    def test_propagator_blocks_follow_the_offsets(self, monkeypatch, op, kinds, blocks):
        built = []
        build = fock.build_matrix

        def recording_build(table, *block):
            built.append(block)
            return build(table, *block)

        monkeypatch.setattr(fock, "build_matrix", recording_build)
        assert band_kinds(op) == kinds
        fock.Propagator(op, 60)
        assert built == blocks


class TestCoherentFock:
    def test_norm_and_moments(self):
        psi = fock.coherent_fock(ALPHA, 60)
        assert np.linalg.norm(psi.amps) == pytest.approx(1.0, abs=1e-12)
        assert fock.mean_photon_fock(psi) == pytest.approx(abs(ALPHA) ** 2, abs=1e-10)
        mu, sigma = fock.fock_moments(psi)
        assert np.allclose(mu, math.sqrt(2) * np.array([0.3, 1.0]), atol=1e-10)
        assert np.allclose(sigma, 0.5 * np.eye(2), atol=1e-10)

    def test_too_small_truncation_raises(self):
        with pytest.raises(TruncationNotConvergedError):
            fock.coherent_fock(5.0 + 0j, 20)

    @pytest.mark.parametrize("alpha", [0j, 1.3, ALPHA, 4.4 + 0j],
                             ids=["vacuum", "real", "complex", "near-limit"])
    def test_matches_the_recurrence(self, alpha):
        # c_n = c_{n−1} α/√n, renormalised; 4.4 is about the largest |α|
        # whose tail fits in 60 levels.
        want = np.zeros(60, dtype=complex)
        want[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for n in range(1, 60):
            want[n] = want[n - 1] * alpha / math.sqrt(n)
        want /= np.linalg.norm(want)
        got = fock.coherent_fock(alpha, 60).amps
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_rejects_fewer_than_two_levels(self, dim):
        with pytest.raises(ValueError, match="at least 2"):
            fock.coherent_fock(ALPHA, dim)


class TestBandedProduct:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_OPERATOR, st.sampled_from((2, 3, 9, 480)), st.integers(0, 2**32 - 1))
    def test_matches_the_matrix_product(self, op, dim, seed):
        # Any form, with a real or a complex matrix.
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        got = fock._apply(op, amps)
        want = fock.build_matrix(fock._bands(op, dim)) @ amps
        tol = 16.0 * np.finfo(float).eps * dim * max(1.0, max_abs(op)) * np.linalg.norm(amps)
        assert np.linalg.norm(got - want) <= tol

    def test_expectations_build_no_matrix(self, monkeypatch):
        amps, _ = fock.Propagator(qrm_effective(1.0, 0.9), 120).evolve(
            fock.coherent_fock(ALPHA, 120).amps, 2.0)
        psi = fock.FockState(amps)
        h = Quadratic(1.3, 0.8, 0.1, 0.0, -0.2 * math.sqrt(2.0), -0.25)  # c_a = 0.2i
        m_psi = dense_matrix(h, 120) @ psi.amps
        mean = np.vdot(psi.amps, m_psi).real

        def no_matrix(*args, **kwargs):
            raise AssertionError("build_matrix called")

        monkeypatch.setattr(fock, "build_matrix", no_matrix)
        assert expectation_fock(psi, h) == pytest.approx(mean, rel=1e-12)
        assert fock.variance_fock(psi, h) == pytest.approx(
            np.vdot(m_psi, m_psi).real - mean**2, rel=1e-12)


def dense_moments(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: quadrature moments from dense X and P matrix products."""
    a = ladder(psi.size)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)

    def mean(op):
        return np.vdot(psi, op @ psi).real

    mu = np.array([mean(x), mean(p)])
    xp = 0.5 * mean(x @ p + p @ x)
    sigma = np.array([[mean(x @ x), xp], [xp, mean(p @ p)]]) - np.outer(mu, mu)
    return mu, sigma


class TestFockMoments:
    @pytest.mark.parametrize("dim", [4, 9, 40])
    def test_random_states_match_dense_products(self, dim):
        # The top two levels stay empty, so the truncated dense products
        # X·X and P·P are exact on these states.
        rng = np.random.default_rng(dim)
        amps = np.zeros(dim, dtype=complex)
        amps[:-2] = rng.standard_normal(dim - 2) + 1j * rng.standard_normal(dim - 2)
        psi = fock.FockState(amps / np.linalg.norm(amps))
        mu, sigma = fock.fock_moments(psi)
        want_mu, want_sigma = dense_moments(psi.amps)
        np.testing.assert_allclose(mu, want_mu, rtol=0.0, atol=1e-13 * dim)
        np.testing.assert_allclose(sigma, want_sigma, rtol=0.0, atol=1e-13 * dim)

    def test_squeezed_state_matches_dense_products(self):
        amps, _ = fock.Propagator(qrm_effective(1.0, 0.9), 120).evolve(
            fock.coherent_fock(ALPHA, 120).amps, 2.0)
        mu, sigma = fock.fock_moments(fock.FockState(amps))
        want_mu, want_sigma = dense_moments(amps)
        assert abs(sigma[0, 1]) > 0.1  # a genuinely correlated state
        np.testing.assert_allclose(mu, want_mu, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(sigma, want_sigma, rtol=0.0, atol=1e-11)


class TestEvolveFock:
    def test_time_zero(self):
        psi = fock.coherent_fock(ALPHA, 40)
        out, _ = fock.Propagator(qrm_effective(1.0, 0.8), 40).evolve(psi.amps, 0.0)
        assert np.allclose(out, psi.amps, atol=1e-12)

    def test_free_evolution_phases(self):
        psi = fock.coherent_fock(ALPHA, 60)
        out, _ = fock.Propagator(N, 60).evolve(psi.amps, 1.3)
        want = fock.coherent_fock(ALPHA * np.exp(-1.3j), 60)
        assert abs(np.vdot(out, want.amps)) == pytest.approx(1.0, abs=1e-8)

    def test_norm_preserved(self):
        psi = fock.coherent_fock(ALPHA, 160)
        out, tail = fock.Propagator(qrm_effective(1.0, 0.9), 160).evolve(psi.amps, 4.0)
        assert tail <= fock.TAIL_TOL
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_truncation_escalation_raises_at_fixed_dim(self):
        # Deep squeezing at g = 0.99 cannot fit in 60 levels.
        strong = qrm_effective(1.0, 0.99)
        psi = fock.coherent_fock(ALPHA, 60)
        t_quarter = 0.5 * math.pi / math.sqrt(1.0 - 0.99**2)
        _, tail = fock.Propagator(strong, 60).evolve(psi.amps, t_quarter)
        assert tail > fock.TAIL_TOL
        with pytest.raises(TruncationNotConvergedError, match=r"dim=60: t_c=\S+ \(preparation\)"):
            fock.converged_states(strong, N, ALPHA, t_quarter, start_dim=60, max_dim=60)

    def test_full_protocol_mean_photon_matches_gaussian(self):
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.96), Htheta=encoding_frequency(),
            t_c=3.0, t_theta=12.0, alpha=ALPHA, theta0=0.1,
        )
        psi = fock.converged_protocol_state(spec, 0.1)
        from canp.metrology import protocol_state

        assert fock.mean_photon_fock(psi) == pytest.approx(
            photon_number(protocol_state(spec)), abs=1e-6
        )


_SMALL = st.floats(-1.0, 1.0)
_COMPLEX = st.builds(complex, _SMALL, _SMALL)


def _ladder_form(c_n, c_aa, c_a, c_1) -> Quadratic:
    """c_n a†a + c_aa a² + c̄_aa a†² + c_a a + c̄_a a† + c_1 as a form."""
    return from_ladder(Ladder(c_n, c_aa, c_aa.conjugate(), c_a, c_a.conjugate(), c_1))


# Random quadratic operators of each structure the propagator distinguishes:
# diagonal; no linear term (elliptic, hyperbolic det G < 0, real or complex
# c_aa); with a linear term.
_DIAGONAL = st.builds(lambda c_n, c_1: _ladder_form(c_n, 0j, 0j, c_1), _SMALL, _SMALL)
_NO_LINEAR = st.builds(lambda c_n, c_aa, c_1: _ladder_form(c_n, c_aa, 0j, c_1),
                       _SMALL, _COMPLEX.filter(lambda z: z != 0), _SMALL)
_LINEAR = st.builds(_ladder_form, _SMALL, _COMPLEX, _COMPLEX.filter(lambda z: z != 0), _SMALL)


def dense_apply(op: Quadratic, amps: np.ndarray, t: float) -> np.ndarray:
    """Reference: V exp(−iΛt) V†ψ from one full eigendecomposition of the matrix."""
    energies, eigvecs = np.linalg.eigh(fock.build_matrix(fock._bands(op, amps.size)))
    return eigvecs @ (np.exp(-1j * energies * t) * (eigvecs.conj().T @ amps))


class TestPropagatorStructure:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_DIAGONAL, _NO_LINEAR, _LINEAR), st.sampled_from((81, 96)),
           st.floats(-0.25, 0.25), st.integers(0, 2**32 - 1))
    def test_matches_the_dense_decomposition(self, op, dim, t, seed):
        # Support on the lowest ten levels, and |t|·|c| ≤ 0.36: the state
        # stays far from the truncation edge, so the tail check passes.
        rng = np.random.default_rng(seed)
        amps = np.zeros(dim, dtype=complex)
        amps[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        got, tail = fock.Propagator(op, dim).evolve(amps, t)
        assert tail <= fock.TAIL_TOL
        want = dense_apply(op, amps, t)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(amps)

    def test_split_propagator_keeps_parity(self):
        amps = np.zeros(120, dtype=complex)
        amps[0:10:2] = [0.6, 0.5j, -0.4, 0.3, 0.2 - 0.1j]
        for op in (qrm_effective(1.0, 0.9), _ladder_form(1.5, 0.3 - 0.4j, 0j, 0.1)):
            out, _ = fock.Propagator(op, 120).evolve(amps, 0.7)
            assert np.all(out[1::2] == 0.0)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(amps), rel=1e-12)

    @pytest.mark.parametrize("op, sizes", [
        (N, []),
        (qrm_effective(1.0, 0.99), [240, 240]),
        (X, [480]),
    ], ids=["a†a", "H_c", "X"])
    def test_decomposes_only_the_coupled_blocks(self, monkeypatch, op, sizes):
        shapes = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        fock.Propagator(op, 480)
        assert shapes == [(n, n) for n in sizes]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_DIAGONAL, _NO_LINEAR, _LINEAR), st.sampled_from((2, 3, 8, 61)),
           st.sampled_from(((0, 1), (0, 2), (1, 2), (2, 3))))
    def test_level_block_is_the_full_matrix_restricted(self, op, dim, levels):
        start, step = levels
        block = fock.build_matrix(fock._bands(op, dim), start, step)
        full = fock.build_matrix(fock._bands(op, dim))[start::step, start::step]
        assert block.dtype == full.dtype
        assert block.tobytes() == np.ascontiguousarray(full).tobytes()

    @pytest.mark.parametrize("op, levels", [
        (qrm_effective(1.0, 0.99), [(0, 2), (1, 2)]),
        (_ladder_form(0.7, 0.3 - 0.4j, 0j, 0.1), [(0, 2), (1, 2)]),
        (X, [(0, 1)]),
    ], ids=["H_c", "complex-c_aa", "X"])
    def test_fills_each_block_on_its_own(self, monkeypatch, op, levels):
        # A split generator reads its band table once and never builds the
        # full matrix; each decomposed block holds exactly the full matrix's
        # entries, bit for bit.
        read, built, decomposed = [], [], []
        bands, build, eigh = fock._bands, fock.build_matrix, np.linalg.eigh

        def recording_bands(op, dim):
            read.append((op, dim))
            return bands(op, dim)

        def recording_build(table, *block):
            built.append(block)
            return build(table, *block)

        def recording_eigh(a, *args, **kwargs):
            decomposed.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(fock, "_bands", recording_bands)
        monkeypatch.setattr(fock, "build_matrix", recording_build)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        fock.Propagator(op, 480)
        assert read == [(op, 480)]
        assert built == levels
        full = build(bands(op, 480))
        for (start, step), block in zip(levels, decomposed, strict=True):
            want = np.ascontiguousarray(full[start::step, start::step])
            assert block.dtype == want.dtype and block.tobytes() == want.tobytes()


class TestEscalation:
    # The state prepared at g = 0.96, t_c = 3 needs 240 levels, so with
    # max_dim = 120 both helpers walk 60 → 120 and re-raise there.
    SPEC = ProtocolSpec(
        Hc=qrm_effective(1.0, 0.96), Htheta=encoding_frequency(),
        t_c=3.0, t_theta=1.0, alpha=ALPHA,
    )

    @pytest.mark.parametrize("helper", [
        lambda spec, **kw: fock.converged_protocol_state(spec, spec.theta0, **kw),
        lambda spec, **kw: fock.qfi_numeric(spec, **kw),
    ])
    def test_doubles_then_raises_at_max_dim(self, propagator_builds, helper):
        with pytest.raises(TruncationNotConvergedError, match="dim=120"):
            helper(self.SPEC, start_dim=60, max_dim=120)
        assert {dim for _, dim in propagator_builds} == {60, 120}
        converged = fock.converged_protocol_state(self.SPEC, 0.0, start_dim=60)
        assert converged.dim == 240

    @pytest.mark.parametrize("htheta, t_encode, alpha, stage", [
        (X, 0.0, 6.0, "probe"),  # |α|² = 36 does not fit in 60 levels
        (X, 0.0, ALPHA, "preparation"),
        (X, 40.0, 0.3 + 0j, "encoding"),  # X displaces ⟨P⟩ by −40
        (N, 40.0, ALPHA, "preparation"),
    ], ids=["probe", "preparation", "encoding", "diagonal-encoding"])
    def test_error_names_the_time_stage_and_truncation(self, htheta, t_encode, alpha, stage):
        # At 60 levels, t_c = 0.5 at g = 0.99 fits, and 40 does not.
        times = (0.5, 40.0) if stage == "preparation" else (0.5,)
        with pytest.raises(TruncationNotConvergedError) as caught:
            fock.converged_states(qrm_effective(1.0, 0.99), htheta, alpha, times, t_encode,
                                  start_dim=60, max_dim=60)
        t_c = times[-1]
        assert str(caught.value).endswith(f"up to dim=60: t_c={t_c:g} ({stage})")
        assert caught.value.pending == [len(times) - 1]


# The path that leaves 60 levels mid-way and comes back: its endpoint tail
# is 1.1e-11, and at 60 levels its QFI would be 9.4e-6 off.
LEAKING_PATH = ProtocolSpec(
    Hc=Quadratic(gxx=0.5715, gxp=-0.4806, gpp=2.3511), Htheta=X,
    t_c=2.5014, t_theta=0.4546, alpha=-0.4336 - 0.7804j,
)


class TestPathCheck:
    def test_path_that_leaves_the_truncation_fails(self):
        spec = LEAKING_PATH
        probe = fock.coherent_fock(spec.alpha, 60).amps
        end, tail = fock.Propagator(spec.Hc, 60).evolve(probe, spec.t_c)
        assert np.sum(np.abs(end[-fock.TAIL_LEVELS:]) ** 2) <= fock.TAIL_TOL < tail
        with pytest.raises(TruncationNotConvergedError, match="dim=60"):
            fock.qfi_numeric(spec, start_dim=60, max_dim=60)
        [(dim, _, _)] = fock.converged_states(spec.Hc, spec.Htheta, spec.alpha, spec.t_c)
        assert dim == 120
        want = Protocol(spec.Hc, spec.Htheta, spec.alpha).qfi(spec.t_c, spec.t_theta)
        assert fock.qfi_numeric(spec) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_DIAGONAL, _NO_LINEAR, _LINEAR), st.sampled_from((7, 8, 61)),
           st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    def test_path_tail_is_the_worst_sampled_tail(self, op, dim, t, seed):
        # The tail of each sample time k·t/16, evolved on its own.
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        prop = fock.Propagator(op, dim)
        _, tail = prop.evolve(amps, t)
        samples, _ = prop.evolve(amps, t * np.arange(1, fock.PATH_SAMPLES + 1) / fock.PATH_SAMPLES)
        want = np.max(np.sum(np.abs(samples[:, -fock.TAIL_LEVELS:]) ** 2, axis=1))
        assert tail == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestConvergedStates:
    def test_a_row_matches_one_time_calls(self):
        # g = 0.96 needs 60 to 240 levels over these times; the encoding X
        # is dense, so its path is sampled too.
        hc = qrm_effective(1.0, 0.96)
        times = (0.0, 0.4, 1.5, 3.0, 4.2)
        row = fock.converged_states(hc, X, ALPHA, times, 0.8)
        assert sorted({dim for dim, _, _ in row}) == [60, 120, 240]
        for t_c, (dim, prepared, final) in zip(times, row, strict=True):
            [(one_dim, one_prepared, one_final)] = fock.converged_states(hc, X, ALPHA, t_c, 0.8)
            assert dim == one_dim
            assert np.max(np.abs(prepared.amps - one_prepared.amps)) <= 1e-14
            assert np.max(np.abs(final.amps - one_final.amps)) <= 1e-14


class TestGaussianAgreement:
    """Closed-form Gaussian moments against the oracle for the flows no
    figure uses: G = 0 and det G < 0."""

    @pytest.mark.parametrize("h, t, det_sign", [
        # P = i(a† − a)/√2: pure displacement, complex matrix
        (Quadratic(vp=1.0), 1.3, 0),
        (Quadratic(gxx=1.0, gpp=-1.0), 0.4, -1),  # (X² − P²)/2, real matrix
        (Quadratic(gxp=1.0), 0.4, -1),  # (XP + PX)/2 = i(a†² − a²)/2
        # 0.3 a†a + 0.6(a² + a†²) + (0.2 − 0.1i) a + (0.2 + 0.1i) a†
        (_ladder_form(0.3, 0.6 + 0j, 0.2 - 0.1j, 0.0), 0.5, -1),
    ])
    def test_moments_match_oracle(self, h, t, det_sign):
        assert np.sign(round(h.gxx * h.gpp - h.gxp * h.gxp, 12)) == det_sign
        gauss = evolve(coherent(ALPHA), h, t)
        amps, tail = fock.Propagator(h, 120).evolve(fock.coherent_fock(ALPHA, 120).amps, t)
        assert tail <= fock.TAIL_TOL
        mu, sigma = fock.fock_moments(fock.FockState(amps))
        assert np.max(np.abs(mu - gauss.mu)) <= 1e-9
        assert np.max(np.abs(sigma - gauss.sigma)) <= 1e-9


def one_minus_fidelity(spec: ProtocolSpec, delta: float, dim: int) -> float:
    """1 − |⟨ψ(θ−δ)|ψ(θ+δ)⟩| without cancellation, from the encoder's spectral weights.

    With weights w_k = |⟨e_k|ψ_prep⟩|² on the eigenvectors of H_θ (energies
    E_k), χ(δ) = Σ w_k exp(−2iδ t_θ E_k) and
    1 − |χ|² = Σ_jk w_j w_k (1 − cos 2δ t_θ(E_j − E_k)) = Σ_jk w_j w_k 2 sin² δ t_θ(E_j − E_k),
    so no difference of nearly equal numbers is ever formed.
    """
    prepared, _ = fock.Propagator(spec.Hc, dim).evolve(fock.coherent_fock(spec.alpha, dim).amps,
                                                       spec.t_c)
    energies, eigvecs = np.linalg.eigh(fock.build_matrix(fock._bands(spec.Htheta, dim)))
    weights = np.abs(eigvecs.conj().T @ prepared) ** 2
    half = delta * spec.t_theta * energies
    one_minus_sq = float(weights @ (2.0 * np.sin(half[:, None] - half[None, :]) ** 2) @ weights)
    return one_minus_sq / (1.0 + math.sqrt(1.0 - one_minus_sq))


class TestQfiNumeric:
    def test_direct_encoding_closed_form(self):
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.96), Htheta=encoding_frequency(),
            t_c=0.0, t_theta=12.0, alpha=ALPHA,
        )
        got = fock.qfi_numeric(spec)
        assert got == pytest.approx(4.0 * 12.0**2 * abs(ALPHA) ** 2, rel=1e-5)

    def test_commuting_preparation_keeps_direct_value(self):
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.0), Htheta=encoding_frequency(),
            t_c=3.0, t_theta=12.0, alpha=ALPHA,
        )
        assert fock.qfi_numeric(spec) == pytest.approx(627.84, rel=1e-5)

    def test_truncation_doubling_stability(self):
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.9), Htheta=encoding_frequency(),
            t_c=2.0, t_theta=12.0, alpha=ALPHA,
        )
        f1 = fock.qfi_numeric(spec, start_dim=120)
        f2 = fock.qfi_numeric(spec, start_dim=240)
        assert abs(f1 - f2) / f2 < 1e-6

    @pytest.mark.parametrize("htheta", [encoding_frequency(), encoding_displacement()],
                             ids=["a†a", "X"])
    def test_is_the_small_step_limit_of_the_fidelity(self, htheta):
        # 8(1 − |⟨ψ(θ−δ)|ψ(θ+δ)⟩|)/(2δ)² approaches qfi_numeric with an
        # error ∝ δ²: the exact limit is the limit a finite step approximates.
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.9), Htheta=htheta,
            t_c=2.0, t_theta=12.0, alpha=ALPHA, theta0=0.1,
        )
        dim = fock.converged_protocol_state(spec, spec.theta0).dim
        exact = fock.qfi_numeric(spec, start_dim=dim)
        deltas = np.logspace(-6, -4, 5)
        errors = [abs(8.0 * one_minus_fidelity(spec, d, dim) / (2.0 * d) ** 2 - exact) / exact
                  for d in deltas]
        assert errors[-1] < 1e-3
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestSkewInformationGeneral:
    def test_pure_state_reduces_to_variance(self):
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = fock.FockState(amps / np.linalg.norm(amps))
        k = fock.build_matrix(fock._bands(N, 12))
        got = skew_information_general(density_matrix(psi), k)
        assert got == pytest.approx(fock.variance_fock(psi, N), abs=1e-10)

    def test_maximally_mixed_vanishes(self):
        dim = 9
        b = np.eye(dim) / dim
        k = fock.build_matrix(fock._bands(qrm_effective(1.0, 0.7), dim))
        assert skew_information_general(b, k) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_hand_value(self):
        b = np.diag([0.75, 0.25]).astype(complex)
        k = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        got = skew_information_general(b, k)
        assert got == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-12)
        assert got == pytest.approx(0.1340, abs=5e-5)

    def test_against_direct_commutator_formula(self):
        # Independent route: −½ Tr([√B, K]²) with scipy's matrix square root.
        rng = np.random.default_rng(8)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = m @ m.conj().T
        b = b / np.trace(b).real
        k_raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        k = 0.5 * (k_raw + k_raw.conj().T)
        root = sqrtm(b)
        comm = root @ k - k @ root
        want = -0.5 * np.trace(comm @ comm).real
        assert skew_information_general(b, k) == pytest.approx(want, abs=1e-10)

    def test_rejects_bad_density_matrices(self):
        with pytest.raises(NotPositiveError):
            skew_information_general(np.diag([0.9, 0.3]), np.eye(2))
        with pytest.raises(NotPositiveError):
            skew_information_general(np.diag([1.5, -0.5]), np.eye(2))

    def test_matches_gaussian_variance_on_prepared_state(self):
        # Eq.-level consistency: skew of the prepared pure state equals the
        # Gaussian-engine variance of the encoding Hamiltonian.
        from canp.gaussian import evolve, variance_quadratic

        h = qrm_effective(1.0, 0.9)
        t_c = 1.2
        amps, _ = fock.Propagator(h, 120).evolve(fock.coherent_fock(ALPHA, 120).amps, t_c)
        psi = fock.FockState(amps)
        k = fock.build_matrix(fock._bands(N, 120))
        got = skew_information_general(density_matrix(psi), k)
        want = variance_quadratic(evolve(coherent(ALPHA), h, t_c), N)
        assert got == pytest.approx(want, rel=1e-6)
