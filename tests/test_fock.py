import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm

from canp import fock
from canp.errors import NotPositiveError, TruncationNotConvergedError
from canp.gaussian import coherent, evolve, photon_number, to_quadrature_form
from canp.metrology import ProtocolSpec
from canp.models import encoding_frequency, qrm_effective
from canp.operators import QuadraticOperator

ALPHA = 0.3 + 1.0j
N = QuadraticOperator.number()


def dense_matrix(op: QuadraticOperator, dim: int) -> np.ndarray:
    """Reference: the operator assembled from dense ladder-matrix products."""
    a = fock.ladder(dim)
    ad = a.T
    return (
        op.c_n * (ad @ a)
        + op.c_aa * (a @ a)
        + op.c_adad * (ad @ ad)
        + op.c_a * a
        + op.c_ad * ad
        + op.c_1 * np.eye(dim)
    ).astype(complex)


_COEFF = st.floats(-2.0, 2.0)
_OPERATOR = st.booleans().flatmap(
    lambda real: st.lists(
        _COEFF.map(complex) if real else st.builds(complex, _COEFF, _COEFF),
        min_size=6, max_size=6,
    )
).map(lambda coeffs: QuadraticOperator(*coeffs))


class TestBuildMatrix:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_OPERATOR, st.sampled_from((2, 3, 7, 60)))
    def test_matches_dense_ladder_products(self, op, dim):
        m = fock.build_matrix(op, dim)
        real = all(c.imag == 0.0 for c in op.coeffs())
        assert m.dtype == (np.float64 if real else np.complex128)
        want = dense_matrix(op, dim)
        off = ~np.eye(dim, dtype=bool)
        assert np.array_equal(m[off], want[off])
        # The band fill puts n itself on the diagonal; the product (a†a)_nn
        # is √n·√n, which may be off by an ulp.
        tol = 4.0 * np.finfo(float).eps * dim * max(1.0, op.max_abs())
        assert np.max(np.abs(np.diag(m) - np.diag(want))) <= tol

    def test_number_operator_diagonal(self):
        m = fock.build_matrix(N, 7)
        assert np.allclose(m, np.diag(np.arange(7.0)))

    def test_identity(self):
        m = fock.build_matrix(QuadraticOperator.identity(), 5)
        assert np.allclose(m, np.eye(5))

    def test_rabi_effective_element(self):
        # ⟨0|H_eff|2⟩ = −(g²/4)·√2 at omega = 1, g = 0.96
        m = fock.build_matrix(qrm_effective(1.0, 0.96), 6)
        want = -(0.96**2 / 4.0) * math.sqrt(2.0)
        assert m[0, 2] == pytest.approx(want, abs=1e-12)
        assert m[0, 2] == pytest.approx(-0.3258, abs=5e-5)

    def test_hermitian_input_gives_hermitian_matrix(self):
        m = fock.build_matrix(qrm_effective(1.3, 0.7), 40)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * np.max(np.abs(m))


class TestCoherentFock:
    def test_norm_and_moments(self):
        psi = fock.coherent_fock(ALPHA, 60)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        assert fock.mean_photon_fock(psi) == pytest.approx(abs(ALPHA) ** 2, abs=1e-10)
        mu, sigma = fock.fock_moments(psi)
        assert np.allclose(mu, math.sqrt(2) * np.array([0.3, 1.0]), atol=1e-10)
        assert np.allclose(sigma, 0.5 * np.eye(2), atol=1e-10)

    def test_too_small_truncation_raises(self):
        with pytest.raises(TruncationNotConvergedError):
            fock.coherent_fock(5.0 + 0j, 20)


def dense_moments(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: quadrature moments from dense X and P matrix products."""
    a = fock.ladder(psi.size)
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
        psi = fock.evolve_fock(fock.coherent_fock(ALPHA, 120), qrm_effective(1.0, 0.9), 2.0)
        mu, sigma = fock.fock_moments(psi)
        want_mu, want_sigma = dense_moments(psi.amps)
        assert abs(sigma[0, 1]) > 0.1  # a genuinely correlated state
        np.testing.assert_allclose(mu, want_mu, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(sigma, want_sigma, rtol=0.0, atol=1e-11)


class TestEvolveFock:
    def test_time_zero(self):
        psi = fock.coherent_fock(ALPHA, 40)
        out = fock.evolve_fock(psi, qrm_effective(1.0, 0.8), 0.0)
        assert np.allclose(out.amps, psi.amps, atol=1e-12)

    def test_free_evolution_phases(self):
        psi = fock.coherent_fock(ALPHA, 60)
        out = fock.evolve_fock(psi, N, 1.3)
        want = fock.coherent_fock(ALPHA * np.exp(-1.3j), 60)
        assert abs(out.overlap(want)) == pytest.approx(1.0, abs=1e-8)

    def test_norm_preserved(self):
        psi = fock.coherent_fock(ALPHA, 160)
        out = fock.evolve_fock(psi, qrm_effective(1.0, 0.9), 4.0)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_truncation_escalation_raises_at_fixed_dim(self):
        # Deep squeezing at g = 0.99 cannot fit in 60 levels.
        strong = qrm_effective(1.0, 0.99)
        psi = fock.coherent_fock(ALPHA, 60)
        t_quarter = 0.5 * math.pi / math.sqrt(1.0 - 0.99**2)
        with pytest.raises(TruncationNotConvergedError):
            fock.evolve_fock(psi, strong, t_quarter)

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


class TestPropagatorMemo:
    def test_state_and_qfi_share_decompositions(self, propagator_builds):
        # g = 0.9 at t_c = 2 escalates past the default truncation, so both
        # callers walk the same ladder of dims and must share every build.
        spec = ProtocolSpec(
            Hc=qrm_effective(1.0, 0.9), Htheta=encoding_frequency(),
            t_c=2.0, t_theta=12.0, alpha=ALPHA, theta0=0.1,
        )
        psi = fock.converged_protocol_state(spec, spec.theta0)
        fock.qfi_numeric(spec)
        assert psi.dim > fock.DEFAULT_DIM
        assert {h for h, _ in propagator_builds} == {spec.Hc, spec.Htheta}
        assert set(propagator_builds.values()) == {1}

    def test_shared_propagator_is_read_only(self):
        prop = fock.propagator(N, 8)
        assert prop is fock.propagator(QuadraticOperator(c_n=1 + 0j), 8)
        with pytest.raises(ValueError):
            prop.eigvecs[0, 0] = 2.0


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


class TestGaussianAgreement:
    """Closed-form Gaussian moments against the oracle for the flows no
    figure uses: G = 0 and det G < 0."""

    @pytest.mark.parametrize("h, t, det_sign", [
        (QuadraticOperator.momentum(), 1.3, 0),  # pure displacement, complex matrix
        (QuadraticOperator(c_aa=0.5, c_adad=0.5), 0.4, -1),  # (X² − P²)/2, real matrix
        (QuadraticOperator(c_aa=-0.5j, c_adad=0.5j), 0.4, -1),  # i(a†² − a²)/2
        (QuadraticOperator(c_n=0.3, c_aa=0.6, c_adad=0.6, c_a=0.2 - 0.1j, c_ad=0.2 + 0.1j),
         0.5, -1),
    ])
    def test_moments_match_oracle(self, h, t, det_sign):
        g_mat, _, _ = to_quadrature_form(h)
        assert np.sign(round(np.linalg.det(g_mat), 12)) == det_sign
        gauss = evolve(coherent(ALPHA), h, t)
        psi = fock.evolve_fock(fock.coherent_fock(ALPHA, 120), h, t)
        mu, sigma = fock.fock_moments(psi)
        assert np.max(np.abs(mu - gauss.mu)) <= 1e-9
        assert np.max(np.abs(sigma - gauss.sigma)) <= 1e-9


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


class TestSkewInformationGeneral:
    def test_pure_state_reduces_to_variance(self):
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = fock.FockState(amps / np.linalg.norm(amps))
        k = fock.build_matrix(N, 12)
        got = fock.skew_information_general(psi.density_matrix(), k)
        assert got == pytest.approx(fock.variance_fock(psi, N), abs=1e-10)

    def test_maximally_mixed_vanishes(self):
        dim = 9
        b = np.eye(dim) / dim
        k = fock.build_matrix(qrm_effective(1.0, 0.7), dim)
        assert fock.skew_information_general(b, k) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_hand_value(self):
        b = np.diag([0.75, 0.25]).astype(complex)
        k = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        got = fock.skew_information_general(b, k)
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
        assert fock.skew_information_general(b, k) == pytest.approx(want, abs=1e-10)

    def test_rejects_bad_density_matrices(self):
        with pytest.raises(NotPositiveError):
            fock.skew_information_general(np.diag([0.9, 0.3]), np.eye(2))
        with pytest.raises(NotPositiveError):
            fock.skew_information_general(np.diag([1.5, -0.5]), np.eye(2))

    def test_matches_gaussian_variance_on_prepared_state(self):
        # Eq.-level consistency: skew of the prepared pure state equals the
        # Gaussian-engine variance of the encoding Hamiltonian.
        from canp.gaussian import evolve, variance_quadratic

        h = qrm_effective(1.0, 0.9)
        t_c = 1.2
        psi = fock.evolve_fock(fock.coherent_fock(ALPHA, 120), h, t_c)
        k = fock.build_matrix(N, 120)
        got = fock.skew_information_general(psi.density_matrix(), k)
        want = variance_quadratic(evolve(coherent(ALPHA), h, t_c), N)
        assert got == pytest.approx(want, rel=1e-6)
