import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from canp import fock
from canp.gaussian import (
    GaussianState,
    coherent,
    evolution_map,
    evolve,
    photon_number,
    quadratic_covariance,
    quadratic_variance,
    quadrature_stats,
    variance_quadratic,
)
from canp.models import encoding_displacement, encoding_frequency, qrm_effective, qrm_commutator_d
from canp.operators import SERIES_SWITCH, Quadratic, flow_weights
from quadrature_forms import expectation, expectation_fock, ladder_matrix, to_ladder

ALPHA = 0.3 + 1.0j
VACUUM = coherent(0j)
N = encoding_frequency()
X = encoding_displacement()
P = Quadratic(vp=1.0)
# Symplectic form for r = (X, P): [r_j, r_k] = i * OMEGA_jk.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
            amps, tail = fock.Propagator(h, dim).evolve(fock.coherent_fock(ALPHA, dim).amps, 3.0)
            if tail <= fock.TAIL_TOL:
                break
            dim *= 2
        psi_t = fock.FockState(amps)
        mu_f, sigma_f = fock.fock_moments(psi_t)
        assert np.max(np.abs(got.mu - mu_f)) < 1e-6
        assert np.max(np.abs(got.sigma - sigma_f)) < 1e-6
        assert photon_number(got) == pytest.approx(fock.mean_photon_fock(psi_t), abs=1e-6)


class TestDefects:
    """The closed-form invariants against eigvalsh and det of the 2×2 matrices."""

    @staticmethod
    def states() -> GaussianState:
        # sigma = ν R diag(e^{2r}, e^{−2r}) Rᵀ / 2: pure at ν = 1, mixed
        # (det sigma > ¼) above, unphysical (det sigma < ¼) in (0, 1), and
        # not even positive for ν < 0. One row of 40 random states per ν.
        rng = np.random.default_rng(20261018)
        nu = np.array([1.0, 1.5, 3.0, 0.5, 0.9, -0.7])[:, None]
        shape = (nu.size, 40)
        r, phi = rng.uniform(-2.0, 2.0, shape), rng.uniform(0.0, math.pi, shape)
        a, b = 0.5 * nu * np.exp(2.0 * r), 0.5 * nu * np.exp(-2.0 * r)
        c, s = np.cos(phi), np.sin(phi)
        return GaussianState(rng.normal(size=shape), rng.normal(size=shape),
                             a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c)

    def test_match_the_matrix_references(self):
        state = self.states()
        sigma = np.moveaxis(state.sigma, (0, 1), (-2, -1))
        want_unc = -np.linalg.eigvalsh(sigma + 0.5j * OMEGA)[..., 0]
        want_purity = np.abs(np.linalg.det(sigma) - 0.25)
        scale = np.abs(state.sxx) + np.abs(state.spp)
        unc, purity = state.uncertainty_defect(), state.purity_defect()
        assert unc.shape == purity.shape == state.sxx.shape
        assert np.all(np.abs(unc - want_unc) <= 1e-14 * scale)
        assert np.all(np.abs(purity - want_purity) <= 1e-14 * scale**2)
        # The sign says which side of σ + iΩ/2 ≥ 0 a row is on.
        assert np.all(unc[0] <= 1e-14 * scale[0]) and np.all(purity[0] <= 1e-14 * scale[0]**2)
        assert np.all(unc[1:3] < 0.0) and np.all(unc[3:] > 0.0)

    def test_scalar_state_gives_a_scalar(self):
        vacuum_defects = (VACUUM.uncertainty_defect(), VACUUM.purity_defect())
        assert [np.shape(d) for d in vacuum_defects] == [(), ()]
        assert vacuum_defects == (0.0, 0.0)


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
        amps, tail = fock.Propagator(h, 240).evolve(fock.coherent_fock(ALPHA, 240).amps, 3.0)
        assert tail <= fock.TAIL_TOL
        want = fock.variance_fock(fock.FockState(amps), d_op)
        assert got == pytest.approx(want, rel=1e-6)

    def test_expectation_matches_number_basis_after_evolution(self):
        h = qrm_effective(1.0, 0.9)
        got_state = evolve(coherent(ALPHA), h, 2.0)
        amps, tail = fock.Propagator(h, 120).evolve(fock.coherent_fock(ALPHA, 120).amps, 2.0)
        assert tail <= fock.TAIL_TOL
        assert expectation(got_state, P) == pytest.approx(
            expectation_fock(fock.FockState(amps), P), abs=1e-6
        )

    def test_quadrature_stats(self):
        assert quadrature_stats(VACUUM) == pytest.approx((0.0, 0.5))
        assert quadrature_stats(coherent(ALPHA)) == pytest.approx((math.sqrt(2), 0.5))


class TestCovariance:
    """quadratic_covariance, ½⟨{F, H}⟩ − ⟨F⟩⟨H⟩, on seeded random forms and states."""

    @staticmethod
    def forms(n: int) -> list[Quadratic]:
        rng = np.random.default_rng(20261020)
        return [Quadratic(*rng.uniform(-1.0, 1.0, 6)) for _ in range(n)]

    @staticmethod
    def pure_states() -> GaussianState:
        # sigma = R diag(e^{2r}, e^{−2r}) Rᵀ / 2 with random means, 50 states.
        rng = np.random.default_rng(20261021)
        r, phi = rng.uniform(-1.0, 1.0, 50), rng.uniform(0.0, math.pi, 50)
        a, b, c, s = 0.5 * np.exp(2.0 * r), 0.5 * np.exp(-2.0 * r), np.cos(phi), np.sin(phi)
        return GaussianState(rng.normal(size=50), rng.normal(size=50),
                             a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c)

    def test_symmetric_and_bilinear(self):
        f, h, k = self.forms(3)
        m, (a, b) = self.pure_states(), (0.7, -1.3)
        combined = Quadratic(*(a * x + b * y for x, y in zip(f, k)))
        # Cauchy–Schwarz bounds each covariance by this scale.
        scale = np.sqrt(quadratic_variance(combined, m) * quadratic_variance(h, m))
        eps = np.finfo(float).eps
        assert np.all(np.abs(quadratic_covariance(f, h, m) - quadratic_covariance(h, f, m))
                      <= 8 * eps * scale)
        linear = a * quadratic_covariance(f, h, m) + b * quadratic_covariance(k, h, m)
        assert np.all(np.abs(quadratic_covariance(combined, h, m) - linear) <= 16 * eps * scale)

    def test_diagonal_is_the_variance_bit_for_bit(self):
        m = self.pure_states()
        for f in self.forms(4):
            got = quadratic_covariance(f, f, m)
            assert np.array_equal(got, quadratic_variance(f, m))
            # The one-operator Wick form: each cross term of the bilinear one
            # is two equal halves, so the skew and the baseline keep their bits.
            wx, wp = f.gxx * m.mx + f.gxp * m.mp + f.vx, f.gxp * m.mx + f.gpp * m.mp + f.vp
            b00, b01 = f.gxx * m.sxx + f.gxp * m.sxp, f.gxx * m.sxp + f.gxp * m.spp
            b10, b11 = f.gxp * m.sxx + f.gpp * m.sxp, f.gxp * m.sxp + f.gpp * m.spp
            want = (0.5 * (b00 * b00 + 2.0 * b01 * b10 + b11 * b11)
                    - 0.25 * (f.gxx * f.gpp - f.gxp * f.gxp)
                    + (m.sxx * wx * wx + 2.0 * m.sxp * wx * wp + m.spp * wp * wp))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("g, t", [(0.9, 2.0), (0.5, 1.0)])
    def test_matches_ladder_and_number_basis(self, g, t):
        # The probe after H_eff(g) for t, in phase space and on 120 levels.
        h_prep, dim = qrm_effective(1.0, g), 120
        state = evolve(coherent(ALPHA), h_prep, t)
        amps, tail = fock.Propagator(h_prep, dim).evolve(fock.coherent_fock(ALPHA, dim).amps, t)
        assert tail <= fock.TAIL_TOL
        forms = self.forms(5)
        routes = {"ladder": lambda op: ladder_matrix(to_ladder(op), dim) @ amps,
                  "number basis": lambda op: fock._apply(op, amps)}
        for route, apply in routes.items():
            for f in forms:
                for h in forms:
                    f_psi, h_psi = apply(f), apply(h)
                    want = (np.vdot(f_psi, h_psi).real
                            - np.vdot(amps, f_psi).real * np.vdot(amps, h_psi).real)
                    scale = math.sqrt(quadratic_variance(f, state) * quadratic_variance(h, state))
                    got = quadratic_covariance(f, h, state)
                    assert abs(got - want) <= 1e-12 * scale, route


def matrix_form(h: Quadratic) -> tuple[np.ndarray, np.ndarray]:
    """G as a 2×2 matrix and v as a vector."""
    return np.array([[h.gxx, h.gxp], [h.gxp, h.gpp]]), np.array([h.vx, h.vp])


def expm_map(h: Quadratic, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference (S, d) from one 3×3 homogeneous matrix exponential."""
    g_mat, v = matrix_form(h)
    m = np.zeros((3, 3))
    m[:2, :2] = OMEGA @ g_mat
    m[:2, 2] = OMEGA @ v
    e = expm(m * t)
    return e[:2, :2], e[:2, 2]


def quadratic(eig1: float, eig2: float, angle: float, v=(0.0, 0.0)) -> Quadratic:
    """The form with G = R(angle) diag(eig1, eig2) R(angle)ᵀ, so det G = eig1·eig2."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    g_mat = rot @ np.diag([eig1, eig2]) @ rot.T
    return Quadratic(g_mat[0, 0], 0.5 * (g_mat[0, 1] + g_mat[1, 0]), g_mat[1, 1], *v, 0.3)


_EIG = st.floats(0.05, 2.0)
_ANGLE = st.floats(0.0, math.pi)
_LINEAR = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_FLOW_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


class TestClosedFormFlow:
    """evolution_map's three-branch closed form against scipy's expm."""

    @staticmethod
    def assert_matches_expm(h: Quadratic, t: float, tol: float = 1e-11) -> None:
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
        h = Quadratic(vx=v[0], vp=v[1])
        s_mat, d = evolution_map(h, t)
        assert np.array_equal(s_mat, np.eye(2))
        assert np.allclose(d, t * (OMEGA @ np.array(v)), rtol=1e-15, atol=0.0)
        self.assert_matches_expm(h, t)

    # The last det is a near-critical gap Δ whose switch falls at t_c = 1.7.
    @pytest.mark.parametrize("det", [1.0, -1.0, 0.37, -2.5, SERIES_SWITCH / 1.7**2])
    def test_continuity_across_series_switch(self, det):
        t_switch = math.sqrt(SERIES_SWITCH / abs(det))
        h = quadratic(det / 0.8, 0.8, 0.4, (0.6, -1.1))
        g_mat, v = matrix_form(h)
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
        # One array holding series and closed-form entries equals the
        # entries evaluated one at a time bit for bit, for either sign of k.
        for k in (0.8, -0.8):
            t = np.array([[0.0, 1e-4, 2.0], [3.0, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9)]])
            batch = flow_weights(k, t)
            for idx in np.ndindex(t.shape):
                single = flow_weights(k, float(t[idx]))
                assert [w[idx] for w in batch] == list(single)
