import cmath
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canp import experiments, fock, metrology
from canp.errors import (
    CommutingPairError,
    NegativeDeltaError,
    NoSignChangeError,
    OutOfPhaseError,
    VacuumProbeError,
)
from canp.experiments import Axis, RunConfig, load_config, run_experiment
from canp.gaussian import (
    GaussianState,
    coherent,
    photon_number,
    quadratic_variance,
    quadrature_stats,
    variance_quadratic,
)
from canp.metrology import (
    MetrologyReport,
    Protocol,
    ProtocolSpec,
    cfi_homodyne,
    enhancement_ratio,
    evaluate_report,
    find_threshold,
    protocol_state,
    sweep,
    zero_crossings,
)
from canp.models import (
    ModelParams,
    encoding_displacement,
    encoding_frequency,
    qrm_commutator_d,
    qrm_delta_displacement,
    qrm_delta_frequency,
    qrm_effective,
)
from canp.operators import Quadratic, flow_weights
from quadrature_forms import Ladder, from_ladder

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ALPHA = 0.3 + 1.0j
T_THETA = 12.0


def qrm_spec(g, t_c, t_theta=T_THETA, alpha=ALPHA, theta0=0.0):
    params = ModelParams("QRM-frequency", g=g)
    return ProtocolSpec(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=t_c, t_theta=t_theta, alpha=alpha, theta0=theta0,
    )


def qrm_protocol(g, alpha=ALPHA):
    return Protocol(*ModelParams("QRM-frequency", g=g).pair(), alpha)


def qrm_at_tau(g):
    """The QRM-frequency protocol of g and its critical time π/√Δ."""
    protocol = qrm_protocol(g)
    return protocol, protocol.preparation_time(math.pi)


def qrm_spec_at_tau(g, **kwargs):
    return qrm_spec(g, qrm_at_tau(g)[1], **kwargs)


# H_c = P²/2 against H_θ = X: [H_c, [H_c, H_θ]] = 0, so Δ = 0.
FREE_PARTICLE = Quadratic(gpp=1.0)
X = encoding_displacement()


class TestPreparationTime:
    def test_matches_published_critical_time(self):
        assert Protocol(*ModelParams("QRM-frequency", g=0.96).pair(), ALPHA).preparation_time(
            math.pi) == pytest.approx(math.pi / math.sqrt(0.3136), rel=1e-12)
        rng = np.random.default_rng(20240903)
        for _ in range(100):
            omega, g = 0.5 + 1.5 * rng.random(), 0.01 + 0.98 * rng.random()
            lam, gamma = 0.01 + 0.98 * rng.random(), 1.05 + 1.95 * rng.random()
            for params in (ModelParams("QRM-frequency", omega=omega, g=g),
                           ModelParams("QRM-displacement", omega=omega, g=g),
                           ModelParams("LMG-frequency", omega=omega, lam=lam, gamma=gamma)):
                t_c = Protocol(*params.pair(), ALPHA).preparation_time(math.pi)
                assert t_c == pytest.approx(math.pi / math.sqrt(params.published_delta()),
                                            rel=1e-12)

    def test_broadcasts(self):
        protocol = Protocol(*ModelParams("LMG-frequency", lam=0.4, gamma=2.0).pair(), ALPHA)
        sqrt_delta_tc = np.linspace(0.0, 4.0 * math.pi, 6).reshape(3, 2)
        got = protocol.preparation_time(sqrt_delta_tc)
        assert got.shape == (3, 2)
        for i, j in np.ndindex(got.shape):
            assert got[i, j] == protocol.preparation_time(float(sqrt_delta_tc[i, j]))

    @pytest.mark.parametrize("params", [ModelParams("QRM-frequency", g=0.0),
                                        ModelParams("LMG-frequency", lam=0.4, gamma=1.0)])
    def test_commuting_pair_raises(self, params):
        with pytest.raises(CommutingPairError):
            Protocol(*params.pair(), ALPHA).preparation_time(math.pi)

    def test_zero_gap_raises(self):
        protocol = Protocol(FREE_PARTICLE, X, ALPHA)
        assert protocol.structure.Delta == 0.0
        with pytest.raises(OutOfPhaseError):
            protocol.preparation_time(np.array([0.0, math.pi]))


class TestQfiExact:
    def test_no_preparation(self):
        protocol = qrm_protocol(0.96)
        got = protocol.qfi(0.0, T_THETA)
        assert got == pytest.approx(4.0 * T_THETA**2 * abs(ALPHA) ** 2, rel=1e-12)
        # At t_c = 0 the generator is exactly t_θ H_θ.
        assert got == 4.0 * T_THETA**2 * variance_quadratic(coherent(ALPHA), protocol.htheta)

    @pytest.mark.parametrize("params", [ModelParams("QRM-frequency", g=0.0),
                                        ModelParams("LMG-frequency", lam=0.4, gamma=1.0)])
    def test_commuting_pair_is_the_bare_encoding(self, params):
        # The zero structure's generator is t_θ H_θ at every t_c, bit for bit.
        protocol = Protocol(*params.pair(), ALPHA)
        t_c = np.array([0.0, 0.5, 3.0, 40.0])[:, None]
        t_theta = np.array([0.7, T_THETA])
        want = 4.0 * (t_theta * t_theta) * variance_quadratic(coherent(ALPHA), protocol.htheta)
        assert np.array_equal(protocol.qfi(t_c, t_theta), np.broadcast_to(want, (4, 2)))

    @pytest.mark.parametrize("params", [ModelParams("QRM-frequency", g=0.0),
                                        ModelParams("LMG-frequency", lam=0.4, gamma=1.0)])
    def test_commuting_pair_covariance_is_the_encodings_variance(self, params):
        protocol = Protocol(*params.pair(), ALPHA)
        want = variance_quadratic(coherent(ALPHA), protocol.htheta)
        assert protocol.covariance == (want, 0.0, 0.0, 0.0, 0.0, 0.0)

    # The shipped configs' pairs on fig2a's grid.
    @pytest.mark.parametrize("params", [ModelParams("QRM-frequency", g=0.96),
                                        ModelParams("QRM-displacement", g=0.9),
                                        ModelParams("LMG-frequency", lam=0.4, gamma=2.0)])
    def test_matches_the_generator_variance(self, params):
        # The reference builds the generator H_θ + sC − qD as one form per
        # grid row and takes its Wick variance in the probe.
        axes = json.loads((CONFIG_DIR / "fig2a.json").read_text())["sweep"]
        y, t_theta = (np.linspace(a["start"], a["stop"], a["points"])
                      for a in (axes["sqrtDelta_tc"], axes["t_theta"]))
        protocol = Protocol(*params.pair(), ALPHA)
        t_c = protocol.preparation_time(y)[:, None]
        f_c, f_d, delta, _ = protocol.structure
        _, s, q = flow_weights(delta, t_c)
        generator = Quadratic(*(th + s * c - q * d for th, c, d in zip(protocol.htheta, f_c, f_d)))
        want = 4.0 * (t_theta * t_theta) * quadratic_variance(generator, protocol.probe)
        assert np.max(np.abs(protocol.qfi(t_c, t_theta) / want - 1.0)) <= 4e-15

    def test_matches_numeric_oracle(self):
        spec = qrm_spec(0.96, 3.0)
        qfi = Protocol(spec.Hc, spec.Htheta, spec.alpha).qfi(spec.t_c, spec.t_theta)
        assert qfi == pytest.approx(fock.qfi_numeric(spec), rel=1e-10)
        # Regression pin for the generator-variance value itself.
        assert qfi == pytest.approx(43104.596123522046, rel=1e-9)

    def test_near_critical_asymptotic_dominance(self):
        # The cross terms decay like Delta: within 10% at g = 0.98 and
        # within 5% by the top of the range.
        devs = []
        for g in (0.98, 0.985, 0.99, 0.995):
            protocol, t_c = qrm_at_tau(g)
            devs.append(abs(protocol.qfi(t_c, T_THETA) / protocol.qfi_asymptotic(t_c, T_THETA)
                            - 1.0))
        assert all(d <= 0.10 for d in devs)
        assert devs[-1] <= 0.05
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_theta_independence(self):
        a = evaluate_report(qrm_spec(0.9, 2.0, theta0=0.0)).qfi_exact
        b = evaluate_report(qrm_spec(0.9, 2.0, theta0=0.37)).qfi_exact
        assert abs(a - b) / a <= 1e-10


class TestGeneratorWeights:
    """The weights (s, q) = flow_weights(Δ, t_c) of the generator H_θ + sC − qD
    are H_c's own flow weights (c_f, s_f, q_f) = flow_weights(det G_c, t_c):
    Δ is det G_c or exactly 4 det G_c, and then √Δ·t_c is twice H_c's phase."""

    @pytest.mark.parametrize("params, ratio", [
        (ModelParams("QRM-frequency", g=0.96), 4.0),
        (ModelParams("QRM-displacement", g=0.9), 1.0),
        (ModelParams("LMG-frequency", lam=0.9999, gamma=2.0), 4.0),
    ])
    def test_are_the_preparation_flows_weights(self, params, ratio):
        protocol = Protocol(*params.pair(), ALPHA)
        t_c = protocol.preparation_time(np.linspace(0.0, 4.0 * math.pi, 400))
        det = protocol.preparation.det
        assert protocol.structure.Delta == ratio * det
        c_f, s_f, q_f = flow_weights(det, t_c)
        _, s, q = flow_weights(protocol.structure.Delta, t_c)
        if ratio == 1.0:
            assert np.array_equal(s, s_f) and np.array_equal(q, q_f)
        else:  # sin 2φ = 2 sin φ cos φ and 1 − cos 2φ = 2 sin²φ
            eps = np.finfo(float).eps
            assert np.all(np.abs(s - s_f * c_f) <= 4.0 * eps * np.abs(s_f * c_f))
            assert np.all(np.abs(q - 0.5 * s_f * s_f) <= 4.0 * eps * np.abs(0.5 * s_f * s_f))


class TestQfiAsymptotic:
    def test_zero_at_tc_zero(self):
        assert qrm_protocol(0.9).qfi_asymptotic(0.0, T_THETA) == 0.0

    def test_quartic_short_time_scaling(self):
        t_grid = np.logspace(-3, -2, 20)
        values = qrm_protocol(0.96).qfi_asymptotic(t_grid, T_THETA)
        slope = np.polyfit(np.log(t_grid), np.log(values), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.05)

    def test_deviation_from_exact_at_098(self):
        protocol, t_c = qrm_at_tau(0.98)
        exact = protocol.qfi(t_c, T_THETA)
        assert abs(protocol.qfi_asymptotic(t_c, T_THETA) - exact) / exact < 0.1

    @pytest.mark.parametrize("g, t_c", [(0.9, 0.7), (0.96, 3.0), (0.99, 20.0)])
    def test_matches_printed_closed_form(self, g, t_c):
        # 4 t_θ² [(cos(√Δ t_c) − 1)/Δ]² Var[D], with Δ and D from the
        # published forms and Var[D] from the GaussianState route.
        delta = qrm_delta_frequency(1.0, g)
        weight = (math.cos(math.sqrt(delta) * t_c) - 1.0) / delta
        var_d = variance_quadratic(coherent(ALPHA), qrm_commutator_d(1.0, g))
        want = 4.0 * T_THETA**2 * weight**2 * var_d
        assert qrm_protocol(g).qfi_asymptotic(t_c, T_THETA) == pytest.approx(want, rel=1e-12)


class TestDirectBaseline:
    def test_no_preparation(self):
        assert qrm_protocol(0.96).direct_baseline(0.0, T_THETA, 0.0) == pytest.approx(
            4.0 * T_THETA**2 * abs(ALPHA) ** 2, rel=1e-12
        )

    def test_commuting_preparation_keeps_photon_number(self):
        want = 4.0 * (3.0 + T_THETA) ** 2 * abs(ALPHA) ** 2
        assert qrm_protocol(0.0).direct_baseline(3.0, T_THETA, 0.0) == pytest.approx(
            want, rel=1e-12)

    def test_energy_matching_uses_fock_photon_number(self):
        spec = qrm_spec(0.96, 3.0)
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        psi = fock.converged_protocol_state(spec, spec.theta0)
        want = 4.0 * (spec.t_c + spec.t_theta) ** 2 * fock.mean_photon_fock(psi)
        assert protocol.direct_baseline(spec.t_c, spec.t_theta, spec.theta0) == pytest.approx(
            want, rel=1e-6)
        assert photon_number(protocol.state(spec.t_c, spec.t_theta, spec.theta0)) == (
            pytest.approx(fock.mean_photon_fock(psi), abs=1e-6))


class TestEnhancementRatio:
    def test_commuting_preparation_wastes_time(self):
        spec = qrm_spec(0.0, 3.0)
        want = T_THETA**2 / (3.0 + T_THETA) ** 2
        assert enhancement_ratio(spec) == pytest.approx(want, rel=1e-12)
        assert enhancement_ratio(spec) < 1.0

    def test_vacuum_probe_rejected(self):
        with pytest.raises(VacuumProbeError):
            enhancement_ratio(qrm_spec(0.9, 1.0, alpha=0.0))

    def test_crosses_unity_near_reported_coupling(self):
        assert enhancement_ratio(qrm_spec_at_tau(0.48)) < 1.0
        assert enhancement_ratio(qrm_spec_at_tau(0.53)) > 1.0

    def test_monotone_in_g_at_critical_time(self):
        values = [enhancement_ratio(qrm_spec_at_tau(float(g))) for g in np.linspace(0.6, 0.99, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))


def k_spread(protocol, sqrt_delta_tc):
    """Largest relative spread of R·(T/t_θ)², T = t_c + t_θ, over nine t_θ from
    0.05 to 50 and θ0 ∈ {0, 0.37}, at each t_c placed by sqrt_delta_tc."""
    t_c = protocol.preparation_time(sqrt_delta_tc)[:, None, None]
    t_theta = np.geomspace(0.05, 50.0, 9)[None, :, None]
    k = protocol.ratio(t_c, t_theta, np.array([0.0, 0.37])) * ((t_c + t_theta) / t_theta) ** 2
    k = k.reshape(len(sqrt_delta_tc), -1)
    return float(np.max((k.max(axis=1) - k.min(axis=1)) / k.max(axis=1)))


class TestRatioStructure:
    """R = (t_θ/T)²·K(t_c) when the encoding conserves the photon number
    (G_θ ∝ I, v_θ = 0) or has no quadratic part (G_θ = 0).

    K = Var_probe[H_θ + sC − qD] / Var_ref[H_θ]: in the first case the
    baseline's n̄ is the prepared state's, whatever θ0 and t_θ rotate it by;
    in the second the reference variance does not depend on n̄. So K depends
    on neither t_θ nor θ0, and R > 1 exactly where K > 1 and
    t_θ > t_c/(√K − 1).
    """

    SQRT_DELTA_TC = np.linspace(0.05, 4.0 * math.pi, 11)

    @pytest.mark.parametrize("params", [ModelParams("QRM-frequency", g=0.96),
                                        ModelParams("QRM-displacement", g=0.9),
                                        ModelParams("LMG-frequency", lam=0.4, gamma=2.0)],
                             ids=lambda p: p.variant)
    def test_shipped_pairs_factorize(self, params):
        assert k_spread(Protocol(*params.pair(), ALPHA), self.SQRT_DELTA_TC) <= 1e-14

    def test_random_encodings_factorize(self):
        # Elliptic H_c of either sign. n̄ rounds to ε(σ_xx + σ_pp)/n̄ of
        # itself, so the probes are bright: |α| from 0.5 to 2.
        rng = np.random.default_rng(20240914)
        for _ in range(25):
            gxx, gpp = rng.uniform(0.2, 2.0, 2)
            gxp = 0.9 * math.sqrt(gxx * gpp) * rng.uniform(-1.0, 1.0)
            sign = rng.choice((-1.0, 1.0))
            hc = Quadratic(sign * gxx, sign * gxp, sign * gpp, c0=rng.uniform(-1.0, 1.0))
            alpha = rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random())
            a = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
            number_conserving = Quadratic(gxx=a, gpp=a, c0=rng.uniform(-1.0, 1.0))
            shifted = hc._replace(vx=rng.uniform(-1.0, 1.0), vp=rng.uniform(-1.0, 1.0))
            linear = Quadratic(0.0, 0.0, 0.0, *rng.uniform(-1.0, 1.0, 3))
            assert k_spread(Protocol(hc, number_conserving, alpha), self.SQRT_DELTA_TC) <= 1e-14
            assert k_spread(Protocol(shifted, linear, alpha), self.SQRT_DELTA_TC) <= 1e-14

    def test_squeezing_encoding_breaks_it(self):
        # G_θ = diag(1, 0.5) is neither: the reference variance follows the
        # final n̄, which t_θ and θ0 move.
        protocol = Protocol(qrm_effective(1.0, 0.96), Quadratic(gxx=1.0, gpp=0.5), ALPHA)
        assert k_spread(protocol, self.SQRT_DELTA_TC) > 0.1

    def test_fig2a_enhancement_onset(self, tmp_path):
        # On the checked-in fig2a grid, with K = Var_probe[h]/n̄_prep for a†a.
        cfg = load_config(str(CONFIG_DIR / "fig2a.json"), {"out": str(tmp_path / "fig2a.csv")})
        columns = run_experiment(cfg)
        protocol = Protocol(*cfg.model.pair(), cfg.alpha)
        t_c = protocol.preparation_time(cfg.axis("sqrtDelta_tc").values())[:, None]
        t_theta = cfg.axis("t_theta").values()[None, :]
        k = protocol.qfi(t_c, 1.0) / (4.0 * photon_number(protocol.prepared(t_c)))
        assert np.count_nonzero(k > 1.0) and np.count_nonzero(k < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # K = 1 at t_c = 0
            onset = np.where(k > 1.0, t_c / (np.sqrt(k) - 1.0), np.inf)
        want = t_theta > onset
        assert np.array_equal(columns["enhanced"], want.reshape(-1))


class TestSkewInformation:
    def test_no_preparation(self):
        assert qrm_protocol(0.9).skew(0.0) == pytest.approx(abs(ALPHA) ** 2, rel=1e-12)

    def test_identity_with_qfi(self):
        for g, t_c in ((0.9, 1.3), (0.95, 4.0), (0.98, 11.0)):
            protocol = qrm_protocol(g)
            s = protocol.skew(t_c)
            f = protocol.qfi(t_c, T_THETA)
            assert abs(4.0 * T_THETA**2 * s - f) / f <= 1e-9

    def test_shares_maxima_with_qfi(self):
        params = ModelParams("QRM-frequency", g=0.95)
        delta = params.published_delta()
        t_c = np.linspace(0.0, 4.0 * math.pi, 200) / math.sqrt(delta)
        protocol = Protocol(*params.pair(), ALPHA)
        skews, qfis = protocol.skew(t_c), protocol.qfi(t_c, T_THETA)
        assert int(np.argmax(skews)) == int(np.argmax(qfis))


def gaussian_fi_by_quadrature(mean_func, var_func, theta0, step=1e-4):
    """Independent classical-FI oracle: quadrature over the outcome density."""
    xs = np.linspace(-40.0, 40.0, 40001)

    def pdf(theta):
        m, v = mean_func(theta), var_func(theta)
        return np.exp(-((xs - m) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)

    p0 = pdf(theta0)
    dp = (pdf(theta0 + step) - pdf(theta0 - step)) / (2.0 * step)
    mask = p0 > 1e-300
    return float(np.trapezoid(dp[mask] ** 2 / p0[mask], xs[mask]))


class TestCfiHomodyne:
    def test_direct_scheme_hand_value(self):
        # Rotated coherent state with real amplitude: I = 4 t_theta² α².
        alpha = 0.7
        spec = qrm_spec(0.96, 0.0, alpha=alpha)
        got = cfi_homodyne(spec)
        assert got == pytest.approx(4.0 * T_THETA**2 * alpha**2, rel=1e-8)

    def test_direct_scheme_against_quadrature_oracle(self):
        alpha = 0.7
        spec = qrm_spec(0.96, 0.0, alpha=alpha)

        def mean_func(theta):
            return quadrature_stats(protocol_state(spec, theta))[0]

        def var_func(theta):
            return quadrature_stats(protocol_state(spec, theta))[1]

        oracle = gaussian_fi_by_quadrature(mean_func, var_func, 0.0)
        assert cfi_homodyne(spec) == pytest.approx(oracle, rel=1e-6)

    def test_canp_point_against_quadrature_oracle(self):
        spec = qrm_spec_at_tau(0.9)

        def mean_func(theta):
            return quadrature_stats(protocol_state(spec, theta))[0]

        def var_func(theta):
            return quadrature_stats(protocol_state(spec, theta))[1]

        oracle = gaussian_fi_by_quadrature(mean_func, var_func, 0.0)
        assert cfi_homodyne(spec) == pytest.approx(oracle, rel=1e-5)

    def test_efficiency_window_at_critical_time(self):
        for g in np.linspace(0.90, 0.98, 5):
            protocol, t_c = qrm_at_tau(float(g))
            ratio = protocol.cfi_homodyne(t_c, T_THETA, 0.0) / protocol.qfi(t_c, T_THETA)
            assert 0.8 <= ratio <= 1.0

    def test_bounded_by_qfi(self):
        for g, t_c in ((0.5, 1.0), (0.9, 2.5), (0.96, 7.0)):
            protocol = qrm_protocol(g)
            assert protocol.cfi_homodyne(t_c, T_THETA, 0.0) <= protocol.qfi(t_c, T_THETA) * (
                1.0 + 1e-6)


def richardson_cfi(protocol, t_c, t_theta, theta0, h=1e-4):
    """Homodyne CFI with five-point Richardson-refined θ-derivatives of the state."""
    states = {k: protocol.state(t_c, t_theta, theta0 + k * h) for k in (1.0, -1.0, 0.5, -0.5)}

    def derivative(field):
        coarse = (getattr(states[1.0], field) - getattr(states[-1.0], field)) / (2.0 * h)
        fine = (getattr(states[0.5], field) - getattr(states[-0.5], field)) / h
        return (4.0 * fine - coarse) / 3.0

    var_p = protocol.state(t_c, t_theta, theta0).spp
    return derivative("mp") ** 2 / var_p + 0.5 * derivative("spp") ** 2 / var_p**2


# (H_c, H_θ) pairs whose commutator algebra closes with Δ > 0, each with a
# working point θ0 and a preparation-time range reaching past π/√Δ.
CLOSED_PAIRS = {
    "qrm-frequency-g0.995": (ModelParams("QRM-frequency", g=0.995).pair(), 0.1, 35.0),
    "qrm-frequency-g0.96": (ModelParams("QRM-frequency", g=0.96).pair(), 0.0, 12.0),
    "qrm-displacement": (ModelParams("QRM-displacement", g=0.9).pair(), 0.2, 9.0),
    "lmg": (ModelParams("LMG-frequency", lam=0.4, gamma=2.0).pair(), 0.1, 1.5),
}
# Encodings with no closed algebra against H_c; the homodyne CFI needs none.
OPEN_PAIRS = {
    # H_θ = (a² + a†²)/2 = (X² − P²)/2: det G_θ < 0.
    "hyperbolic-encoding": ((qrm_effective(1.0, 0.9), Quadratic(gxx=1.0, gpp=-1.0)), 0.1, 9.0),
    # 0.7 a†a + (0.1 − 0.2i) a² + (0.3 + 0.4i) a + h.c.
    "complex-linear-encoding": ((qrm_effective(1.0, 0.9), Quadratic(
        0.9, 0.4, 0.5, 0.3 * math.sqrt(2.0), -0.4 * math.sqrt(2.0), -0.35)), 0.1, 9.0),
}


class TestExactHomodyne:
    """The analytic θ-derivative against finite differences, and CFI ≤ QFI."""

    @staticmethod
    def grid(t_c_max):
        return np.linspace(0.0, t_c_max, 7)[:, None], np.linspace(0.5, 15.0, 3)[None, :]

    @pytest.mark.parametrize("case", [*CLOSED_PAIRS, *OPEN_PAIRS])
    def test_matches_richardson_difference(self, case):
        (hc, htheta), theta0, t_c_max = {**CLOSED_PAIRS, **OPEN_PAIRS}[case]
        protocol = Protocol(hc, htheta, ALPHA)
        t_c, t_theta = self.grid(t_c_max)
        got = protocol.cfi_homodyne(t_c, t_theta, theta0)
        assert got.shape == (7, 3)
        np.testing.assert_allclose(got, richardson_cfi(protocol, t_c, t_theta, theta0),
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("case", CLOSED_PAIRS)
    def test_bounded_by_qfi_on_grid(self, case):
        (hc, htheta), theta0, t_c_max = CLOSED_PAIRS[case]
        protocol = Protocol(hc, htheta, ALPHA)
        t_c, t_theta = self.grid(t_c_max)
        assert protocol.structure is not None
        cfi = protocol.cfi_homodyne(t_c, t_theta, theta0)
        assert np.all(cfi <= protocol.qfi(t_c, t_theta) * (1.0 + 1e-9))


def _squeezed(c_n, c_aa):
    """c_n a†a + c_aa a² + c̄_aa a†² as a form."""
    return from_ladder(Ladder(c_n, c_aa, c_aa.conjugate()))


_PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def normal_phase_specs(draw):
    """A spec whose H_c = c_n a†a + (c_aa a² + h.c.) has det G = c_n² − 4|c_aa|² > 0.

    |c_aa| = ½|c_n|ρ with ρ ≤ 0.9, so det G = c_n²(1 − ρ²) > 0 by construction:
    no draw is refused. The encoding is a†a, X, or a quadratic with complex
    squeezing; a quadratic encoding closes with Δ = 4 det G and X with det G.
    """
    c_n = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.3, 1.5))
    rho, phase = draw(st.floats(0.0, 0.9)), draw(_PHASE)
    hc = _squeezed(c_n, 0.5 * abs(c_n) * rho * cmath.exp(1j * phase))
    htheta = draw(st.one_of(
        st.just(encoding_frequency()),
        st.just(X),
        st.builds(lambda c, r, phi: _squeezed(c, r * cmath.exp(1j * phi)),
                  st.floats(-1.0, 1.0), st.floats(0.1, 0.5), _PHASE),
    ))
    alpha = draw(st.floats(0.3, 1.5)) * cmath.exp(1j * draw(_PHASE))
    return ProtocolSpec(Hc=hc, Htheta=htheta, t_c=draw(st.floats(0.0, 3.0)),
                        t_theta=draw(st.floats(0.1, 2.0)), alpha=alpha,
                        theta0=draw(st.floats(-0.5, 0.5)))


def path_dim(spec):
    """The truncation at which the oracle holds the whole protocol, both stages' paths included.

    The oracle escalates from DEFAULT_DIM and checks the tail along each
    path itself; both oracle calls below start here, so the QFI and the state
    are read at one truncation. The helper keeps its name because hypothesis
    derives the derandomized draws from the test's source text.
    """
    return fock.converged_protocol_state(spec, spec.theta0).dim


class TestRandomNormalPhasePairs:
    """The whole protocol against the number-basis oracle on random pairs."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(normal_phase_specs())
    def test_matches_oracle(self, spec):
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        dim = path_dim(spec)
        assert protocol.qfi(spec.t_c, spec.t_theta) == pytest.approx(
            fock.qfi_numeric(spec, start_dim=dim), rel=1e-8)
        mu, sigma = fock.fock_moments(fock.converged_protocol_state(spec, spec.theta0,
                                                                    start_dim=dim))
        want = (mu[0], mu[1], sigma[0, 0], sigma[0, 1], sigma[1, 1])
        got = protocol.state(spec.t_c, spec.t_theta, spec.theta0)
        np.testing.assert_allclose(np.array(got, dtype=float), want, rtol=0.0,
                                   atol=1e-9 * max(1.0, np.abs(want).max()))


class TestDegenerateAlgebras:
    def test_zero_gap_pair(self):
        # H_c = P²/2, H_θ = X: [H_c, [H_c, H_θ]] = 0, so Δ = 0 and the
        # generator is t_θ(X + t_c P), whose coherent-state variance is
        # (1 + t_c²)/2.
        hc, x = FREE_PARTICLE, X
        protocol = Protocol(hc, x, ALPHA)
        assert protocol.structure.Delta == 0.0
        t_c = np.array([0.0, 0.5, 2.0])[:, None]
        t_theta = np.array([0.7, 3.0])[None, :]
        np.testing.assert_allclose(protocol.qfi(t_c, t_theta),
                                   2.0 * t_theta**2 * (1.0 + t_c**2), rtol=1e-13)
        spec = ProtocolSpec(Hc=hc, Htheta=x, t_c=0.5, t_theta=2.0, alpha=ALPHA)
        assert protocol.qfi(spec.t_c, spec.t_theta) == pytest.approx(fock.qfi_numeric(spec),
                                                                     rel=1e-6)

    def test_hyperbolic_pair_raises(self):
        # H_c = (a² + a†²)/2 against H_θ = X closes with Δ = −1.
        protocol = Protocol(Quadratic(gxx=1.0, gpp=-1.0), X, ALPHA)
        with pytest.raises(NegativeDeltaError):
            protocol.qfi(1.0, 1.0)
        with pytest.raises(NegativeDeltaError):
            protocol.ratio(1.0, 1.0, 0.0)


def critical_ratio_minus_one(family, t_theta, gamma=2.0):
    """R − 1 at the critical time of each model value, the function find_threshold searches."""
    def f(value):
        moved = {"lam": value, "gamma": gamma} if family == "LMG-frequency" else {"g": value}
        protocol = Protocol(*ModelParams(family, **moved).pair(), ALPHA)
        return float(protocol.ratio(protocol.preparation_time(math.pi), t_theta, 0.0)) - 1.0
    return f


def opposite(a, b):
    return min(a, b) < 0.0 < max(a, b)


def is_sign_change(f, x):
    """f is exactly 0 at x, or has strictly opposite signs at x and a neighbouring float."""
    below, at, above = f(math.nextafter(x, -math.inf)), f(x), f(math.nextafter(x, math.inf))
    return at == 0.0 or opposite(below, at) or opposite(at, above)


def counted(f):
    """f, and the list of the points it has been evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)
    return g, seen


def bisection_evaluations(f, lo, hi):
    """Evaluations, both ends included, that plain bisection takes to adjacent floats."""
    f_lo, count = f(lo), 2
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        f_mid, count = f(mid), count + 1
        if opposite(f_lo, f_mid):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return count


class TestFindThreshold:
    # validate's two brackets. The search evaluates R at both ends and then
    # at each refinement step, building one structure per evaluation.
    @pytest.mark.parametrize("family, t_theta, bracket, printed, root, evaluations", [
        ("QRM-frequency", 12.0, (0.3, 0.8), 0.5058, 0.5058039992181418, 13),
        ("LMG-frequency", 1.3, (0.2, 0.6), 0.3559, 0.35591988119071194, 10),
    ])
    def test_ends_on_adjacent_floats(self, structure_derivations, family, t_theta, bracket,
                                     printed, root, evaluations):
        got = find_threshold(family, t_theta, ALPHA, bracket, gamma=2.0)
        assert got == root
        assert len(structure_derivations) == evaluations
        assert abs(got - printed) <= 5e-5  # the paper's printed digits
        assert is_sign_change(critical_ratio_minus_one(family, t_theta), got)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_threshold("QRM-frequency", 12.0, ALPHA, (0.6, 0.8))

    @pytest.mark.parametrize("bracket", [(0.8, 0.3), (0.5, 0.5)])
    def test_bracket_must_increase(self, bracket):
        # With lo >= hi there is no interval to search.
        with pytest.raises(ValueError, match="lo < hi"):
            find_threshold("QRM-frequency", 12.0, ALPHA, bracket)

    # A bracket must lie in one normal phase: an end out of phase, or a phase
    # boundary (λ = 1 or λ = γ for LMG) strictly inside, is refused before R
    # is evaluated anywhere, so no point the search might visit decides it.
    @pytest.mark.parametrize("family, bracket, gamma, message", [
        ("LMG-frequency", (0.2, 3.0), 2.0, "lambda=1.0, gamma=2.0"),
        ("LMG-frequency", (0.2, 3.0), 0.5, "lambda=0.5, gamma=0.5"),
        ("LMG-frequency", (0.2, 1.5), 2.0, "lambda=1.5, gamma=2.0"),
        ("LMG-frequency", (0.2, 1.0), 2.0, "lambda=1.0, gamma=2.0"),
        ("QRM-frequency", (0.5, 1.2), 2.0, "g=1.2"),
    ])
    def test_phase_gap_is_refused_before_any_ratio(self, structure_derivations, family,
                                                   bracket, gamma, message):
        match = rf"^bracket {re.escape(str(bracket))} leaves the normal phase: .*{message}"
        with pytest.raises(OutOfPhaseError, match=match):
            find_threshold(family, 3.0, ALPHA, bracket, gamma=gamma)
        assert structure_derivations == []

    def test_bracket_beyond_both_boundaries_is_searched(self):
        # λ > max(1, γ) is normal phase too, and its bracket holds no boundary.
        root = find_threshold("LMG-frequency", 3.0, ALPHA, (1.5, 3.0), gamma=0.5)
        assert 2.0 < root < 2.5
        assert is_sign_change(critical_ratio_minus_one("LMG-frequency", 3.0, gamma=0.5), root)

    def test_commuting_pair_names_the_bracket_end(self, structure_derivations):
        # LMG at γ = 1 commutes: the first R read, at the lower end, stops the search.
        with pytest.raises(CommutingPairError, match=r"^model variant=LMG-frequency, omega=1.0, "
                                                     r"lambda=0.2, gamma=1.0: the pair commutes"):
            find_threshold("LMG-frequency", 1.3, ALPHA, (0.2, 0.6), gamma=1.0)
        assert len(structure_derivations) == 1


class TestSweep:
    def test_stacks_columns_model_values_first(self):
        g_values = [0.5, 0.9, 0.96]
        sdtc = np.linspace(0.5, 6.0, 4)
        swept = sweep(ModelParams("QRM-frequency", g=np.array(g_values)), ALPHA, sdtc,
                      lambda p, t_c: {"F": p.qfi(t_c, T_THETA), "S": p.skew(t_c)})
        assert list(swept) == ["F", "S"]
        for g, f_row, s_row in zip(g_values, swept["F"], swept["S"]):
            protocol = qrm_protocol(g)
            t_c = protocol.preparation_time(sdtc)
            np.testing.assert_array_equal(f_row, protocol.qfi(t_c, T_THETA))
            np.testing.assert_array_equal(s_row, protocol.skew(t_c))
        assert swept["F"].shape == swept["S"].shape == (3, 4)

    def test_one_derivation_per_sweep(self, structure_derivations):
        # Five model values, one call: the structure of the whole stack.
        model = ModelParams("QRM-frequency", g=np.array([0.5, 0.7, 0.9, 0.96, 0.99]))
        sweep(model, ALPHA, math.pi, lambda p, t_c: {
            "R": p.ratio(t_c, T_THETA, 0.0), "F": p.qfi(t_c, T_THETA),
            "cfi": p.cfi_homodyne(t_c, T_THETA, 0.0)})
        assert [covered for _, _, covered in structure_derivations] == [5]

    def test_commuting_pair_names_the_model_value(self):
        model = ModelParams("QRM-frequency", g=np.array([0.5, 0.0, 0.0]))
        for phase in (math.pi, np.linspace(0.5, 6.0, 4)):
            with pytest.raises(CommutingPairError, match=r"^model variant=QRM-frequency, "
                                                         r"omega=1.0, g=0.0: the pair commutes"):
                sweep(model, ALPHA, phase, lambda p, t_c: {"t_c": t_c})

    def test_no_model_values_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one model value"):
            sweep(ModelParams("QRM-frequency", g=np.empty(0)), ALPHA, math.pi,
                  lambda p, t_c: {"t_c": t_c})

    # The phase rule holds for every stacked value; the first one outside
    # it is named, as a single model names its own value.
    @pytest.mark.parametrize("model, message", [
        (ModelParams("QRM-frequency", g=np.array([0.5, 1.0, 1.5])), "got g=1.0"),
        (ModelParams("QRM-frequency", g=np.array([0.5, np.nan])), "got g=nan"),
        (ModelParams("LMG-frequency", lam=np.array([0.2, 1.5, 1.0]), gamma=2.0),
         "got lambda=1.5, gamma=2.0"),
    ])
    def test_stacked_phase_rule_names_the_first_value_outside(self, model, message):
        with pytest.raises(OutOfPhaseError, match=f"{re.escape(message)}$"):
            sweep(model, ALPHA, math.pi, lambda p, t_c: {"t_c": t_c})

    # The three shipped pairs, each at three model values in the normal phase.
    PAIRS = {
        "QRM-frequency": [ModelParams("QRM-frequency", g=g) for g in (0.5, 0.9, 0.99)],
        "QRM-displacement": [ModelParams("QRM-displacement", g=g) for g in (0.3, 0.8, 0.995)],
        "LMG-frequency": [ModelParams("LMG-frequency", lam=lam, gamma=2.0)
                          for lam in (0.2, 0.6, 0.97)],
    }

    # Every experiment's columns, at a fixed phase and on a √Δ·t_c axis: the
    # stacked sweep gives, bit for bit, what one Protocol per value gives. A
    # value's column may stand on fewer axes (displacement's delta_p is one
    # number per value), and broadcasts to its stacked row.
    @pytest.mark.parametrize("experiment", [name for name, row in experiments.TABLE.items()
                                            if row.columns])
    @pytest.mark.parametrize("variant", PAIRS)
    @pytest.mark.parametrize("phase", [1.3, np.linspace(0.0, 4.0 * math.pi, 9)[:, None]],
                             ids=["fixed", "axis"])
    def test_stacked_columns_are_the_per_value_columns(self, experiment, variant, phase):
        models = self.PAIRS[variant]
        cfg = RunConfig(experiment, models[0], sweep=(Axis("t_theta", 0.5, 20.0, 4),),
                        t_theta=T_THETA, alpha=ALPHA, theta0=0.2)
        if experiment == "fig2a":  # its t_theta axis trails the phase's, as _sweep_table places it
            phase = np.reshape(phase, (-1, 1))
        columns = partial(experiments.TABLE[experiment].columns, cfg)
        field = models[0].swept
        stack = models[0]._replace(**{field: np.array([getattr(m, field) for m in models])})
        swept = sweep(stack, ALPHA, phase, columns)
        for i, params in enumerate(models):
            protocol = Protocol(*params.pair(), ALPHA)
            row = columns(protocol, protocol.preparation_time(phase))
            assert list(row) == list(swept)
            for name, value in row.items():
                stacked = swept[name][i]
                assert np.broadcast_shapes(stacked.shape, np.shape(value)) == stacked.shape
                value = np.broadcast_to(value, stacked.shape)
                assert stacked.dtype == value.dtype and stacked.tobytes() == value.tobytes(), name

    def test_one_value_keeps_float_entries(self):
        # A single model value is not stacked: its forms, structure and
        # covariances stay Python floats, and its columns get the model axis.
        seen = []
        swept = sweep(ModelParams("QRM-frequency", g=0.9), ALPHA, math.pi,
                      lambda p, t_c: seen.append(p) or {"F": p.qfi(t_c, T_THETA)})
        (protocol,) = seen
        cs = protocol.structure
        for entry in (*protocol.hc, *protocol.htheta, *cs.C, *cs.D, cs.Delta, cs.residual,
                      *protocol.covariance):
            assert type(entry) is float
        assert swept["F"].shape == (1,)


class TestRefine:
    def test_each_evaluation_lies_inside_and_none_repeats(self):
        f, seen = counted(lambda x: x * x - 2.0)
        (root,) = zero_crossings(f, [1.0, 2.0], [-1.0, 2.0])
        assert len(seen) == len(set(seen)) == 9
        assert all(1.0 < x < 2.0 for x in seen)
        lo = max(x for x in seen if x * x < 2.0)
        hi = min(x for x in seen if x * x > 2.0)
        assert math.nextafter(lo, hi) == hi
        assert root in (lo, hi)

    def test_exact_zero_is_returned_when_met(self):
        # The first secant point of a line is its zero.
        f, seen = counted(lambda x: x - 0.25)
        assert zero_crossings(f, [0.0, 1.0], [-0.25, 0.75]) == [0.25]
        assert seen == [0.25]

    # x¹⁰ − 0.5 is where plain regula falsi keeps one end for good, and
    # exp(50x) − 2 where it creeps from the far end (77 evaluations without
    # the width budget); plain bisection takes 55, 59 and 54.
    @pytest.mark.parametrize("fn, lo, hi, evaluations", [
        (lambda x: x**10 - 0.5, 0.0, 1.2, 16),
        (lambda x: math.exp(50.0 * x) - 2.0, 0.0, 1.0, 24),
        (lambda x: x * x - 2.0, 1.0, 2.0, 11),
    ])
    def test_evaluation_counts(self, fn, lo, hi, evaluations):
        f, seen = counted(fn)
        (root,) = zero_crossings(f, [lo, hi], [f(lo), f(hi)])
        assert len(seen) == evaluations <= 2 * bisection_evaluations(fn, lo, hi)
        assert is_sign_change(fn, root)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(root=st.floats(0.01, 0.99), rate=st.floats(-80.0, 80.0),
           power=st.sampled_from([1, 3, 5, 9]))
    def test_never_more_than_twice_bisection(self, root, rate, power):
        # A multiple root and a steep exponential are the slow cases of
        # regula falsi; the width budget bounds them by bisection.
        def fn(x):
            return (x - root) ** power * math.exp(rate * x)

        f, seen = counted(fn)
        (got,) = zero_crossings(f, [0.0, 1.0], [f(0.0), f(1.0)])
        assert len(seen) <= 2 * bisection_evaluations(fn, 0.0, 1.0)
        assert is_sign_change(fn, got)

    def test_tiny_values_keep_their_signs(self):
        # Every product of two values here underflows to ±0; the signs do not.
        def fn(x):
            return 1e-200 * (x**3 - 0.027)

        (root,) = zero_crossings(fn, [0.0, 1.0], [fn(0.0), fn(1.0)])
        assert root == pytest.approx(0.3, rel=1e-15)
        assert is_sign_change(fn, root)

    def test_weights_that_underflow_fall_back_to_the_midpoint(self):
        # The smallest subnormal halves to 0, so the secant point lands on an end.
        def fn(x):
            return math.copysign(5e-324, x - 0.3)

        f, seen = counted(fn)
        (root,) = zero_crossings(f, [0.0, 1.0], [f(0.0), f(1.0)])
        assert is_sign_change(fn, root)
        assert len(seen) <= 2 * bisection_evaluations(fn, 0.0, 1.0)


def never_called(x):
    raise AssertionError(f"f({x}) evaluated: no neighbours here change sign strictly")


class TestZeroCrossings:
    # A value of exactly 0 is a crossing at its grid point, read once and
    # without evaluating f, whether or not its neighbours change sign.
    @pytest.mark.parametrize("values, crossings", [
        ([0.0, 1.0, 2.0], [0.0]),
        ([-1.0, 0.0, 2.0], [0.5]),
        ([1.0, 0.0, 2.0], [0.5]),
        ([-1.0, -2.0, 0.0], [1.0]),
        ([1.0, 2.0, 3.0], []),
    ])
    def test_exact_zeros_on_the_grid(self, values, crossings):
        assert zero_crossings(never_called, np.array([0.0, 0.5, 1.0]), values) == crossings

    def test_both_ends_zero_lists_the_lower_first(self):
        # find_threshold returns the first crossing: the lower bracket end.
        assert zero_crossings(never_called, (0.2, 0.6), [0.0, 0.0]) == [0.2, 0.6]

    def test_one_sign_change_is_refined_between_its_neighbours(self):
        def f(x):
            return x * x - 2.0

        crossing = zero_crossings(f, [1.0, 2.0], [-1.0, 2.0])
        assert zero_crossings(f, [0.0, 1.0, 2.0, 3.0], [f(0.0), -1.0, 2.0, f(3.0)]) == crossing
        assert is_sign_change(f, crossing[0])

    def test_every_sign_change_in_grid_order(self):
        grid = np.linspace(0.0, 10.0, 11)
        crossings = zero_crossings(math.cos, grid, np.cos(grid))
        assert crossings == pytest.approx([0.5 * math.pi * k for k in (1, 3, 5)], abs=1e-15)
        assert all(is_sign_change(math.cos, c) for c in crossings)

    def test_falling_grid_refines_each_cell_as_the_rising_one(self):
        # Each cell's ends reach the refinement in increasing order; the
        # crossings keep the grid's order.
        grid = np.linspace(0.0, 10.0, 11)
        rising, falling = [], []
        up = zero_crossings(lambda x: rising.append(x) or math.cos(x), grid, np.cos(grid))
        down = zero_crossings(lambda x: falling.append(x) or math.cos(x), grid[::-1],
                              np.cos(grid[::-1]))
        assert down == up[::-1]
        assert sorted(falling) == sorted(rising)

    def test_tiny_sign_change_is_found(self):
        # 0.5e-200 * -0.5e-200 underflows to -0.0, which is not < 0.
        def f(x):
            return 1e-200 * (0.5 - x)

        assert zero_crossings(f, [0.0, 1.0], [0.5e-200, -0.5e-200]) == [0.5]

    def test_nan_value_has_no_sign(self):
        nan = float("nan")
        assert zero_crossings(never_called, [0.0, 1.0, 2.0], [1.0, nan, -1.0]) == []
        assert zero_crossings(math.cos, [1.0, 2.0, 3.0], [math.cos(1.0), math.cos(2.0), nan]) == \
            zero_crossings(math.cos, [1.0, 2.0], [math.cos(1.0), math.cos(2.0)])


class TestQfiDisplacement:
    def displacement_spec(self, g, t_c, t_theta=T_THETA, omega=1.0):
        params = ModelParams("QRM-displacement", g=g, omega=omega)
        return ProtocolSpec(
            Hc=params.preparation(), Htheta=params.encoding(),
            t_c=t_c, t_theta=t_theta, alpha=ALPHA,
        )

    def test_tc_zero(self):
        spec = self.displacement_spec(0.9, 0.0)
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        assert protocol.qfi_displacement(0.0, T_THETA) == 0.0
        assert protocol.qfi(0.0, T_THETA) == pytest.approx(2.0 * T_THETA**2, rel=1e-12)

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_quarter_period_formula_is_exact(self, omega):
        delta_p = qrm_delta_displacement(omega, 0.9)
        t_c = 0.5 * math.pi / math.sqrt(delta_p)
        spec = self.displacement_spec(0.9, t_c, omega=omega)
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        formula = protocol.qfi_displacement(t_c, T_THETA)
        # The mode frequency comes in through H_c alone.
        assert formula == pytest.approx(4.0 * T_THETA**2 * omega**2 / delta_p * 0.5, rel=1e-12)
        assert protocol.qfi(t_c, T_THETA) == pytest.approx(formula, rel=1e-12)
        assert fock.qfi_numeric(spec) == pytest.approx(formula, rel=1e-10)

    def test_frequency_pair_keeps_its_c_term(self):
        # Defined for any pair: 4 t_θ² s² Var[C] with s = sin(√Δ t_c)/√Δ and
        # the pair's own derived C, its variance taken in the number basis.
        protocol = qrm_protocol(0.9)
        cs = protocol.structure
        t_c = np.array([0.0, 0.3, 1.0, 2.5])
        s = np.sin(math.sqrt(cs.Delta) * t_c) / math.sqrt(cs.Delta)
        var_c = fock.variance_fock(fock.coherent_fock(ALPHA, 60), cs.C)
        np.testing.assert_allclose(protocol.qfi_displacement(t_c, T_THETA),
                                   4.0 * T_THETA**2 * s**2 * var_c, rtol=1e-12, atol=0.0)

    def test_commuting_pair_gives_zero(self):
        assert Protocol(X, X, ALPHA).qfi_displacement(np.array([0.5, 2.0]), 3.0).tolist() == [
            0.0, 0.0]

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.99])
    def test_grid_matches_scalar_wrapper_and_published_form(self, omega, g):
        params = ModelParams("QRM-displacement", g=g, omega=omega)
        protocol = Protocol(*params.pair(), ALPHA)
        t_c = np.linspace(0.0, 9.0, 5)[:, None]
        t_theta = np.linspace(0.5, 15.0, 3)[None, :]
        grid = protocol.qfi_displacement(t_c, t_theta)
        assert grid.shape == (5, 3)
        delta = params.published_delta()
        published = 4.0 * t_theta**2 * omega**2 * np.sin(math.sqrt(delta) * t_c) ** 2 / delta * 0.5
        np.testing.assert_allclose(grid, published, rtol=1e-12, atol=0.0)
        for i, j in np.ndindex(grid.shape):
            point = Protocol(params.preparation(), params.encoding(), ALPHA)
            assert grid[i, j] == point.qfi_displacement(float(t_c[i, 0]), float(t_theta[0, j]))


class TestProtocolSpecAndReport:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="durations must be nonnegative"):
            qrm_spec(0.9, -1.0)
        with pytest.raises(ValueError, match="total time must be positive"):
            ProtocolSpec(
                Hc=qrm_effective(1.0, 0.9), Htheta=encoding_frequency(),
                t_c=0.0, t_theta=0.0, alpha=ALPHA,
            )
        # The named-tuple builders check the times too.
        spec = qrm_spec(0.9, 1.0)
        with pytest.raises(ValueError, match="durations must be nonnegative"):
            spec._replace(t_theta=-1.0)
        with pytest.raises(ValueError, match="durations must be nonnegative"):
            ProtocolSpec._make([*spec[:2], 1.0, -T_THETA, *spec[4:]])
        with pytest.raises(ValueError, match="total time must be positive"):
            spec._replace(t_c=0.0, t_theta=0.0)
        assert ProtocolSpec._make(spec) == spec._replace() == spec

    def test_report_invariants(self):
        report = evaluate_report(qrm_spec_at_tau(0.94))
        assert isinstance(report, MetrologyReport)
        assert report.qfi_exact >= 0.0
        assert report.cfi_homodyne <= report.qfi_exact * (1.0 + 1e-6)
        identity_gap = abs(4.0 * T_THETA**2 * report.skew - report.qfi_exact)
        assert identity_gap / report.qfi_exact <= 1e-9
        assert report.ratio == pytest.approx(
            report.qfi_exact / report.qfi_direct_baseline, rel=1e-12
        )

    @pytest.mark.parametrize("g, theta0", [(0.94, 0.0), (0.9, 0.3), (0.0, 0.1)])
    def test_report_derives_structure_once(self, structure_derivations, g, theta0):
        spec = qrm_spec(g, 2.0, theta0=theta0)
        report = evaluate_report(spec)
        assert len(structure_derivations) == 1
        # The fields it fills from its own Protocol equal one-point evaluations bit for bit.
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        assert report.qfi_asymptotic == protocol.qfi_asymptotic(spec.t_c, spec.t_theta)
        assert report.cfi_homodyne == cfi_homodyne(spec)
        assert report.ratio == enhancement_ratio(spec)

    @pytest.mark.parametrize("variant, g, theta0", [
        ("QRM-frequency", 0.94, 0.0), ("QRM-frequency", 0.9, 0.3),
        ("QRM-frequency", 0.0, 0.1), ("QRM-displacement", 0.9, 0.3)])
    def test_report_fields_are_the_public_methods_values(self, monkeypatch, variant, g, theta0):
        params = ModelParams(variant, g=g)
        spec = ProtocolSpec(Hc=params.preparation(), Htheta=params.encoding(), t_c=2.0,
                            t_theta=T_THETA, alpha=ALPHA, theta0=theta0)
        checks, states = [], []
        durations, state = metrology._durations, Protocol._state

        def counting_durations(*args):
            checks.append(args)
            return durations(*args)

        def counting_state(self, *args):
            states.append(args)
            return state(self, *args)

        with monkeypatch.context() as patched:
            patched.setattr(metrology, "_durations", counting_durations)
            patched.setattr(Protocol, "_state", counting_state)
            report = evaluate_report(spec)
        # One time check and one final state per report.
        assert (len(checks), len(states)) == (1, 1)
        protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
        times = (spec.t_c, spec.t_theta)
        final = protocol.state(*times, theta0)
        assert report._asdict() == {
            "qfi_exact": float(protocol.qfi(*times)),
            "qfi_asymptotic": float(protocol.qfi_asymptotic(*times)),
            "qfi_direct_baseline": float(protocol.direct_baseline(*times, theta0)),
            "ratio": float(protocol.ratio(*times, theta0)),
            "skew": float(protocol.skew(spec.t_c)),
            "cfi_homodyne": float(protocol.cfi_homodyne(*times, theta0)),
            "meanP": float(final.mp),
            "varP": float(final.spp),
            "final_mean_photon": float(photon_number(final)),
        }

    def test_report_serializes_flat(self):
        report = evaluate_report(qrm_spec(0.9, 1.0))
        payload = json.loads(json.dumps(report._asdict()))
        assert set(payload) == {
            "qfi_exact", "qfi_asymptotic", "qfi_direct_baseline", "ratio",
            "skew", "cfi_homodyne", "meanP", "varP", "final_mean_photon",
        }

    def test_maxima_approach_odd_pi(self):
        # The first QFI maximum over t_c sits near √Δ t_c = π; the generator
        # cross terms pull it slightly below, by an offset that closes as the
        # critical point is approached.
        shifts = []
        for g in (0.9, 0.95, 0.98):
            params = ModelParams("QRM-frequency", g=g)
            delta = params.published_delta()
            grid = np.linspace(2.0, 4.2, 800)
            values = Protocol(*params.pair(), ALPHA).qfi(grid / math.sqrt(delta), T_THETA)
            peak = grid[int(np.argmax(values))]
            shifts.append(abs(peak - math.pi))
            assert peak == pytest.approx(math.pi, abs=0.15)
        assert shifts[0] > shifts[1] > shifts[2]


class TestProtocolKernel:
    """The batched kernel against one-point evaluations, element by element."""

    CASES = (
        ("QRM-frequency", 0.96, 0.0),
        ("QRM-frequency", 0.9, 0.23),
        ("QRM-frequency", 0.0, 0.1),  # commuting pair: generator t_θ H_θ
        ("QRM-displacement", 0.9, 0.3),
    )

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (3, 7)])
    @pytest.mark.parametrize("variant, g, theta0", CASES)
    def test_grid_matches_scalar_wrappers(self, shape, variant, g, theta0):
        params = ModelParams(variant, g=g)
        hc, htheta = params.pair()
        t_c = np.linspace(0.0, 9.0, shape[0])[:, None]
        t_theta = np.linspace(0.5, 15.0, shape[1])[None, :]
        protocol = Protocol(hc, htheta, ALPHA)
        grids = {
            "qfi": protocol.qfi(t_c, t_theta),
            "qfi_asymptotic": protocol.qfi_asymptotic(t_c, t_theta),
            "direct_baseline": protocol.direct_baseline(t_c, t_theta, theta0),
            "ratio": protocol.ratio(t_c, t_theta, theta0),
            "skew": np.broadcast_to(protocol.skew(t_c), shape),
            "cfi_homodyne": protocol.cfi_homodyne(t_c, t_theta, theta0),
        }
        state = protocol.state(t_c, t_theta, theta0)
        assert isinstance(state, GaussianState)
        mean_p, var_p = state.mp, state.spp
        for grid in (*grids.values(), mean_p, var_p):
            assert grid.shape == shape
        for i, j in np.ndindex(shape):
            spec = ProtocolSpec(Hc=hc, Htheta=htheta, t_c=float(t_c[i, 0]),
                                t_theta=float(t_theta[0, j]), alpha=ALPHA, theta0=theta0)
            point = Protocol(spec.Hc, spec.Htheta, spec.alpha)
            times = (spec.t_c, spec.t_theta)
            want = {
                "qfi": point.qfi(*times),
                "qfi_asymptotic": point.qfi_asymptotic(*times),
                "direct_baseline": point.direct_baseline(*times, theta0),
                "ratio": enhancement_ratio(spec),
                "skew": point.skew(spec.t_c),
                "cfi_homodyne": cfi_homodyne(spec),
            }
            for name, grid in grids.items():
                assert grid[i, j] == pytest.approx(want[name], rel=1e-14, abs=1e-300)
            final = protocol_state(spec)
            assert isinstance(final, GaussianState)
            assert (mean_p[i, j], var_p[i, j]) == pytest.approx(
                quadrature_stats(final), rel=1e-14, abs=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.builds(lambda variant, g: ModelParams(variant, g=g),
                      st.sampled_from(("QRM-frequency", "QRM-displacement")),
                      st.floats(0.05, 0.999)),
            st.builds(lambda lam, gamma: ModelParams("LMG-frequency", lam=lam, gamma=gamma),
                      st.floats(0.0, 0.95), st.floats(1.5, 4.0)),
        ),
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5),
        st.lists(st.floats(0.1, 20.0), min_size=1, max_size=5),
        st.floats(-1.0, 1.0),
        st.builds(complex, st.floats(0.1, 1.5), st.floats(-1.5, 1.5)),
    )
    def test_grid_equals_points_bit_for_bit(self, params, t_c, t_theta, theta0, alpha):
        # A value must not depend on the shape it was evaluated in: each cell
        # of an n×m grid is the same float as that point evaluated alone.
        protocol = Protocol(*params.pair(), alpha)
        methods = {
            "qfi": protocol.qfi,
            "qfi_asymptotic": protocol.qfi_asymptotic,
            "direct_baseline": lambda tc, tt: protocol.direct_baseline(tc, tt, theta0),
            "ratio": lambda tc, tt: protocol.ratio(tc, tt, theta0),
            "skew": lambda tc, tt: protocol.skew(tc),
            "cfi_homodyne": lambda tc, tt: protocol.cfi_homodyne(tc, tt, theta0),
            "preparation_time": lambda tc, tt: protocol.preparation_time(tc),
        }
        for field in GaussianState._fields:
            methods[f"state.{field}"] = (
                lambda tc, tt, field=field: getattr(protocol.state(tc, tt, theta0), field))
            methods[f"prepared.{field}"] = (
                lambda tc, tt, field=field: getattr(protocol.prepared(tc), field))
        if params.variant == "QRM-displacement":
            methods["qfi_displacement"] = protocol.qfi_displacement
        column, row = np.array(t_c)[:, None], np.array(t_theta)[None, :]
        for name, method in methods.items():
            grid = np.broadcast_to(method(column, row), (len(t_c), len(t_theta)))
            points = np.array([[float(method(tc, tt)) for tt in t_theta] for tc in t_c])
            assert np.array_equal(grid, points), name

    # Every public method taking (t_c, t_θ), with its arguments after those.
    TIMED = {"qfi": (), "qfi_asymptotic": (), "qfi_displacement": (), "state": (0.2,),
             "direct_baseline": (0.2,), "ratio": (0.2,), "cfi_homodyne": (0.2,)}

    @pytest.mark.parametrize("name, rest", TIMED.items(), ids=list(TIMED))
    def test_each_call_checks_its_times_once(self, monkeypatch, name, rest):
        calls = []
        original = metrology._durations

        def counting(t_c, t_theta):
            calls.append((t_c, t_theta))
            return original(t_c, t_theta)

        protocol = qrm_protocol(0.9)
        monkeypatch.setattr(metrology, "_durations", counting)
        getattr(protocol, name)(np.array([[0.5], [2.0]]), np.array([1.0, 3.0]), *rest)
        assert len(calls) == 1

    @pytest.mark.parametrize("name, rest", TIMED.items(), ids=list(TIMED))
    def test_each_method_rejects_bad_times(self, name, rest):
        method = getattr(qrm_protocol(0.9), name)
        for t_c, t_theta in ((np.array([1.0, -1.0]), 2.0), (1.0, -2.0)):
            with pytest.raises(ValueError, match="durations must be nonnegative"):
                method(t_c, t_theta, *rest)
        with pytest.raises(ValueError, match="total time must be positive"):
            method(np.array([0.0, 1.0]), 0.0, *rest)

    def test_skew_rejects_negative_time(self):
        with pytest.raises(ValueError, match="durations must be nonnegative"):
            qrm_protocol(0.9).skew(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("t_c", [-1.0, np.array([1.0, -1.0])], ids=["scalar", "array-entry"])
    def test_prepared_rejects_negative_time(self, t_c):
        # As skew does: a negative preparation time would evolve the probe backwards.
        with pytest.raises(ValueError, match="durations must be nonnegative"):
            qrm_protocol(0.9).prepared(t_c)

    def test_time_validation_matches_spec(self):
        protocol = Protocol(qrm_effective(1.0, 0.9), encoding_frequency(), ALPHA)
        with pytest.raises(ValueError):
            protocol.ratio(np.array([1.0, -1.0]), 2.0, 0.0)
        with pytest.raises(ValueError):
            protocol.qfi(0.0, 0.0)
        with pytest.raises(VacuumProbeError, match=r"^alpha=0j: enhancement ratio is undefined"):
            Protocol(qrm_effective(1.0, 0.9), encoding_frequency(), 0.0).ratio(1.0, 1.0, 0.0)

    def test_displacement_baseline_at_nonzero_working_point(self):
        # Encoding exp(−iθ t_θ X) shifts ⟨P⟩ by −θ t_θ, so the final photon
        # number depends on θ0; the coherent-state variance of X does not,
        # so the energy-matched baseline stays 4 T² · ½.
        params = ModelParams("QRM-displacement", g=0.9)
        protocol = Protocol(*params.pair(), ALPHA)
        t_c, t_theta = 2.0, 3.0

        def spec_at(theta0):
            return ProtocolSpec(Hc=params.preparation(), Htheta=params.encoding(),
                                t_c=t_c, t_theta=t_theta, alpha=ALPHA, theta0=theta0)

        nbar = {th: photon_number(protocol_state(spec_at(th))) for th in (0.0, 0.4)}
        assert abs(nbar[0.4] - nbar[0.0]) > 0.1
        for theta0 in (0.0, 0.4):
            spec = spec_at(theta0)
            psi = fock.converged_protocol_state(spec, theta0)
            assert nbar[theta0] == pytest.approx(fock.mean_photon_fock(psi), abs=1e-9)
            reference = fock.coherent_fock(math.sqrt(fock.mean_photon_fock(psi)), psi.dim)
            oracle = 4.0 * (t_c + t_theta) ** 2 * fock.variance_fock(reference, spec.Htheta)
            baseline = protocol.direct_baseline(t_c, t_theta, theta0)
            assert baseline == pytest.approx(oracle, rel=1e-9)
            assert baseline == pytest.approx(2.0 * (t_c + t_theta) ** 2, rel=1e-13)

    def test_baseline_follows_working_point_for_general_encoding(self):
        # With a squeezing term in H_θ both the final photon number and the
        # reference variance depend on θ0; the baseline must use the
        # photon number at θ0 (checked against the number-basis oracle).
        htheta = Quadratic(gxx=1.4, gpp=0.6, c0=-0.5)  # a†a + 0.2(a² + a†²)
        values = []
        for theta0 in (0.0, 0.15):
            spec = ProtocolSpec(Hc=qrm_effective(1.0, 0.9), Htheta=htheta, t_c=1.5,
                                t_theta=2.0, alpha=ALPHA, theta0=theta0)
            psi = fock.converged_protocol_state(spec, theta0)
            reference = fock.coherent_fock(math.sqrt(fock.mean_photon_fock(psi)), psi.dim)
            oracle = 4.0 * (spec.t_c + spec.t_theta) ** 2 * fock.variance_fock(reference, htheta)
            protocol = Protocol(spec.Hc, spec.Htheta, spec.alpha)
            values.append(protocol.direct_baseline(spec.t_c, spec.t_theta, theta0))
            assert values[-1] == pytest.approx(oracle, rel=1e-8)
        assert abs(values[1] - values[0]) > 1e-3 * values[0]
