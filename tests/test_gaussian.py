import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from canp import fock
from canp.gaussian import (
    OMEGA,
    GaussianState,
    coherent,
    evolution_map,
    evolve,
    expectation,
    photon_number,
    quadrature_stats,
    variance_quadratic,
)
from canp.models import qrm_effective, qrm_commutator_d
from canp.operators import (
    SERIES_SWITCH,
    QuadraticOperator,
    flow_weights,
    to_quadrature_form,
)
from quadrature_forms import from_quadrature_form

ALPHA = 0.3 + 1.0j
VACUUM = coherent(0j)
N = QuadraticOperator.number()
X = QuadraticOperator.position()
P = QuadraticOperator.momentum()


class TestCoherent:
    def test_vacuum(self):
        st = coherent(0j)
        assert np.allclose(st.mu, 0.0)
        assert np.allclose(st.sigma, 0.5 * np.eye(2))

    def test_figure_amplitude(self):
        st = coherent(ALPHA)
        assert st.mu == pytest.approx([0.4243, 1.4142], abs=5e-5)

    def test_mean_photon(self):
        assert photon_number(coherent(ALPHA)) == pytest.approx(1.09, abs=1e-12)
        assert photon_number(VACUUM) == pytest.approx(0.0, abs=1e-12)

    def test_state_is_five_moments_with_array_views(self):
        st = coherent(ALPHA)
        assert isinstance(st, GaussianState) and isinstance(VACUUM, GaussianState)
        assert tuple(st) == (st.mx, st.mp, 0.5, 0.0, 0.5)
        assert np.array_equal(st.mu, [st.mx, st.mp])
        assert np.array_equal(st.sigma, 0.5 * np.eye(2))
        # Covariance views are symmetric by construction, also over a grid.
        grid = GaussianState(np.zeros(3), np.ones(3), np.full(3, 2.0), np.arange(3.0), np.ones(3))
        assert grid.mu.shape == (2, 3) and grid.sigma.shape == (2, 2, 3)
        assert np.array_equal(grid.sigma[0, 1], grid.sigma[1, 0])


class TestEvolve:
    def test_free_rotation(self):
        for t in (0.3, 1.7, 9.2):
            got = evolve(coherent(ALPHA), N, t)
            assert isinstance(got, GaussianState)
            want = coherent(ALPHA * np.exp(-1j * t))
            assert np.allclose(got.mu, want.mu, atol=1e-12)
            assert np.allclose(got.sigma, want.sigma, atol=1e-12)

    def test_time_zero_identity(self):
        st = coherent(ALPHA)
        got = evolve(st, qrm_effective(1.0, 0.9), 0.0)
        assert np.array_equal(got.mu, st.mu)
        assert np.array_equal(got.sigma, st.sigma)

    def test_composition(self):
        h = qrm_effective(1.0, 0.93)
        st = coherent(ALPHA)
        one_step = evolve(st, h, 3.4)
        two_step = evolve(evolve(st, h, 1.25), h, 2.15)
        assert np.allclose(one_step.mu, two_step.mu, atol=1e-10)
        assert np.allclose(one_step.sigma, two_step.sigma, atol=1e-10)

    def test_symplectic_invariance(self):
        for g in (0.0, 0.5, 0.99):
            h = qrm_effective(1.0, g)
            for t in np.linspace(0.0, 12.0, 7):
                s_mat, _ = evolution_map(h, float(t))
                defect = np.max(np.abs(s_mat @ OMEGA @ s_mat.T - OMEGA))
                assert defect <= 1e-12

    def test_purity_and_uncertainty_preserved(self):
        h = qrm_effective(1.0, 0.97)
        st = coherent(ALPHA)
        for t in np.linspace(0.0, 10.0, 6):
            out = evolve(st, h, float(t))
            assert out.purity_defect() <= 1e-10
            assert out.uncertainty_defect() <= 1e-12

    def test_energy_conserved_under_own_hamiltonian(self):
        h = qrm_effective(1.0, 0.9)
        st = coherent(ALPHA)
        e0 = expectation(st, h)
        for t in (0.7, 2.9, 8.1):
            assert expectation(evolve(st, h, t), h) == pytest.approx(e0, abs=1e-9)

    def test_displacement_hamiltonian(self):
        # exp(−i u X) shifts ⟨P⟩ by −u and leaves the covariance alone.
        st = evolve(coherent(ALPHA), X, 0.8)
        assert st.mu == pytest.approx([math.sqrt(2) * 0.3, math.sqrt(2) * 1.0 - 0.8])
        assert np.allclose(st.sigma, 0.5 * np.eye(2), atol=1e-14)

    def test_moments_match_number_basis(self):
        # Flagship preparation: H_eff(g=0.96) for t=3 on |0.3 + 1i⟩.
        h = qrm_effective(1.0, 0.96)
        got = evolve(coherent(ALPHA), h, 3.0)
        dim = 60
        while True:
            try:
                psi_t = fock.evolve_fock(fock.coherent_fock(ALPHA, dim), h, 3.0)
                break
            except fock.TruncationNotConvergedError:
                dim *= 2
        mu_f, sigma_f = fock.fock_moments(psi_t)
        assert np.max(np.abs(got.mu - mu_f)) < 1e-6
        assert np.max(np.abs(got.sigma - sigma_f)) < 1e-6
        assert photon_number(got) == pytest.approx(fock.mean_photon_fock(psi_t), abs=1e-6)


class TestMoments:
    def test_expectation_examples(self):
        assert expectation(VACUUM, N) == pytest.approx(0.0, abs=1e-15)
        assert expectation(coherent(ALPHA), X) == pytest.approx(math.sqrt(2) * 0.3)
        assert expectation(coherent(ALPHA), P) == pytest.approx(math.sqrt(2) * 1.0)

    def test_variance_examples(self):
        assert variance_quadratic(coherent(ALPHA), N) == pytest.approx(1.09, abs=1e-12)
        assert variance_quadratic(VACUUM, X) == pytest.approx(0.5, abs=1e-15)
        assert variance_quadratic(VACUUM, N) == pytest.approx(0.0, abs=1e-15)

    def test_variance_matches_number_basis_after_evolution(self):
        h = qrm_effective(1.0, 0.96)
        d_op = qrm_commutator_d(1.0, 0.96)
        got_state = evolve(coherent(ALPHA), h, 3.0)
        got = variance_quadratic(got_state, d_op)
        psi_t = fock.evolve_fock(fock.coherent_fock(ALPHA, 240), h, 3.0)
        want = fock.variance_fock(psi_t, d_op)
        assert got == pytest.approx(want, rel=1e-6)

    def test_expectation_matches_number_basis_after_evolution(self):
        h = qrm_effective(1.0, 0.9)
        got_state = evolve(coherent(ALPHA), h, 2.0)
        psi_t = fock.evolve_fock(fock.coherent_fock(ALPHA, 120), h, 2.0)
        assert expectation(got_state, P) == pytest.approx(
            fock.expectation_fock(psi_t, P), abs=1e-6
        )

    def test_quadrature_stats(self):
        assert quadrature_stats(VACUUM) == pytest.approx((0.0, 0.5))
        assert quadrature_stats(coherent(ALPHA)) == pytest.approx((math.sqrt(2), 0.5))


def expm_map(h: QuadraticOperator, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference (S, d) from one 3×3 homogeneous matrix exponential."""
    g_mat, v, _ = to_quadrature_form(h)
    m = np.zeros((3, 3))
    m[:2, :2] = OMEGA @ g_mat
    m[:2, 2] = OMEGA @ v
    e = expm(m * t)
    return e[:2, :2], e[:2, 2]


def quadratic(eig1: float, eig2: float, angle: float, v=(0.0, 0.0)) -> QuadraticOperator:
    """Hermitian quadratic with G = R(angle) diag(eig1, eig2) R(angle)ᵀ, so det G = eig1·eig2."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    g_mat = rot @ np.diag([eig1, eig2]) @ rot.T
    return from_quadrature_form(0.5 * (g_mat + g_mat.T), np.array(v), 0.3)


_EIG = st.floats(0.05, 2.0)
_ANGLE = st.floats(0.0, math.pi)
_LINEAR = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_FLOW_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


class TestClosedFormFlow:
    """evolution_map's three-branch closed form against scipy's expm."""

    @staticmethod
    def assert_matches_expm(h: QuadraticOperator, t: float, tol: float = 1e-11) -> None:
        s_mat, d = evolution_map(h, t)
        s_ref, d_ref = expm_map(h, t)
        scale = max(1.0, float(np.max(np.abs(s_ref))), float(np.max(np.abs(d_ref))))
        assert np.max(np.abs(s_mat - s_ref)) <= tol * scale
        assert np.max(np.abs(d - d_ref)) <= tol * scale
        assert np.max(np.abs(s_mat @ OMEGA @ s_mat.T - OMEGA)) <= tol * scale**2

    @_FLOW_SETTINGS
    @given(_EIG, _EIG, st.booleans(), _ANGLE, _LINEAR, st.floats(0.0, 3.0))
    def test_elliptic(self, e1, e2, negative, angle, v, t):
        sign = -1.0 if negative else 1.0  # det G > 0 for either overall sign
        h = quadratic(sign * e1, sign * e2, angle, v)
        self.assert_matches_expm(h, t)

    @_FLOW_SETTINGS
    @given(_EIG, _EIG, _ANGLE, _LINEAR, st.floats(0.0, 3.0))
    def test_hyperbolic(self, e1, e2, angle, v, t):
        h = quadratic(e1, -e2, angle, v)  # det G < 0
        self.assert_matches_expm(h, t)

    @_FLOW_SETTINGS
    @given(st.floats(-1.0, 1.0), _EIG, _ANGLE, _LINEAR, st.floats(0.01, 3.0))
    def test_series_branch(self, frac, e2, angle, v, t):
        # det G · t² = frac · SERIES_SWITCH lies inside the series window.
        e1 = frac * SERIES_SWITCH / (e2 * t * t)
        h = quadratic(e1, e2, angle, v)
        self.assert_matches_expm(h, t)

    @_FLOW_SETTINGS
    @given(_LINEAR, st.floats(0.0, 5.0))
    def test_pure_displacement(self, v, t):
        h = from_quadrature_form(np.zeros((2, 2)), np.array(v), 0.0)
        s_mat, d = evolution_map(h, t)
        assert np.array_equal(s_mat, np.eye(2))
        assert np.allclose(d, t * (OMEGA @ np.array(v)), rtol=1e-15, atol=0.0)
        self.assert_matches_expm(h, t)

    # The last det is a near-critical gap Δ whose switch falls at t_c = 1.7.
    @pytest.mark.parametrize("det", [1.0, -1.0, 0.37, -2.5, SERIES_SWITCH / 1.7**2])
    def test_continuity_across_series_switch(self, det):
        t_switch = math.sqrt(SERIES_SWITCH / abs(det))
        h = quadratic(det / 0.8, 0.8, 0.4, (0.6, -1.1))
        g_mat, v, _ = to_quadrature_form(h)
        rate = max(1.0, float(np.max(np.abs(g_mat))), float(np.max(np.abs(v))))
        for eps in (1e-9, 1e-12):
            lo, hi = t_switch * (1.0 - eps), t_switch * (1.0 + eps)
            assert abs(det) * lo * lo < SERIES_SWITCH <= abs(det) * hi * hi
            (s_lo, d_lo), (s_hi, d_hi) = evolution_map(h, lo), evolution_map(h, hi)
            # No jump beyond the flow's own change over [lo, hi].
            bound = 2.0 * rate * (hi - lo) + 1e-15
            assert np.max(np.abs(s_hi - s_lo)) <= bound
            assert np.max(np.abs(d_hi - d_lo)) <= bound
            self.assert_matches_expm(h, lo, tol=1e-14)
            self.assert_matches_expm(h, hi, tol=1e-14)
            c_lo, s_lo_w, q_lo = flow_weights(det, lo)
            c_hi, s_hi_w, q_hi = flow_weights(det, hi)
            # |c'| = |k| s, s' = c, q' = s, with s ≈ t and c ≈ 1 at the switch.
            step = 1.01 * (hi - lo)
            assert abs(c_hi - c_lo) <= abs(det) * hi * step + 2e-16
            assert abs(s_hi_w - s_lo_w) <= step + 2e-16 * hi
            assert abs(q_hi - q_lo) <= hi * step + 2e-16 * hi * hi

    def test_weights_limit(self):
        # k → 0: (1, t, t²/2), exactly at k = 0.
        assert [float(w) for w in flow_weights(0.0, 2.0)] == [1.0, 2.0, 2.0]
        c, s, q = flow_weights(1e-18, 3.0)
        assert abs(c - 1.0) < 1e-12 and abs(s - 3.0) < 1e-12 and abs(q - 4.5) < 1e-12

    @pytest.mark.parametrize("k, t", [(0.3136, 3.0), (12.0, 0.4), (2.5, 7.1)])
    def test_weights_match_naive_forms_away_from_switch(self, k, t):
        c, s, q = flow_weights(k, t)
        root = math.sqrt(k)
        assert abs(c - math.cos(root * t)) < 1e-15
        assert abs(s - math.sin(root * t) / root) < 1e-14 * max(1.0, abs(s))
        assert abs(q - (1.0 - math.cos(root * t)) / k) < 1e-13 * max(1.0, abs(q))

    def test_weights_broadcast_and_mixed_branches(self):
        # One array holding series and closed-form entries matches the
        # entries evaluated one at a time (to rounding), for either sign of k.
        for k in (0.8, -0.8):
            t = np.array([[0.0, 1e-4, 2.0], [3.0, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9)]])
            batch = flow_weights(k, t)
            for idx in np.ndindex(t.shape):
                single = flow_weights(k, float(t[idx]))
                assert [w[idx] for w in batch] == pytest.approx(single, rel=1e-15, abs=0.0)
