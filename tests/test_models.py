import numpy as np
import pytest

from canp.errors import CommutingPairError, ConfigError, OutOfPhaseError
from canp.models import (
    ModelParams,
    encoding_displacement,
    encoding_frequency,
    lmg_commutator_d,
    lmg_delta,
    lmg_effective,
    qrm_commutator_c,
    qrm_commutator_d,
    qrm_delta_frequency,
    qrm_effective,
)
from canp.operators import QuadraticOperator, derive_critical_structure


def coeff_diff(x, y):
    return max(abs(a - b) for a, b in zip(x.coeffs(), y.coeffs()))


class TestQrmEffective:
    def test_free_limit(self):
        assert coeff_diff(qrm_effective(1.0, 0.0), QuadraticOperator.number()) == 0.0

    def test_coefficients(self):
        op = qrm_effective(2.0, 0.5)
        assert op.c_n == pytest.approx(2.0 * (1.0 - 0.125))
        assert op.c_aa == pytest.approx(-2.0 * 0.25 / 4.0)
        assert op.c_adad == op.c_aa
        assert op.c_1 == op.c_aa

    def test_out_of_phase(self):
        with pytest.raises(OutOfPhaseError):
            qrm_effective(1.0, 1.0)
        with pytest.raises(OutOfPhaseError):
            qrm_effective(1.0, -0.1)

    def test_derived_structure_matches_printed_operators(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            omega = 0.5 + 1.5 * rng.random()
            g = 0.01 + 0.98 * rng.random()
            cs = derive_critical_structure(qrm_effective(omega, g), encoding_frequency())
            assert coeff_diff(cs.C, qrm_commutator_c(omega, g)) <= 1e-12 * max(
                1.0, cs.C.max_abs()
            )
            assert coeff_diff(cs.D, qrm_commutator_d(omega, g)) <= 1e-12 * max(
                1.0, cs.D.max_abs()
            )
            assert abs(cs.Delta - qrm_delta_frequency(omega, g)) <= 1e-12


class TestLmgEffective:
    def test_coefficients(self):
        op = lmg_effective(0.5, 2.0)
        assert op.c_n == pytest.approx(2.0 * 0.5 - 3.0)
        assert op.c_aa == pytest.approx(0.5)
        assert op.c_1 == pytest.approx(-1.5)

    def test_out_of_phase(self):
        with pytest.raises(OutOfPhaseError):
            lmg_effective(1.5, 2.0)

    def test_delta_and_d_operator(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lam = 0.01 + 0.98 * rng.random()
            gamma = 1.05 + 1.95 * rng.random()
            cs = derive_critical_structure(lmg_effective(lam, gamma), encoding_frequency())
            assert abs(cs.Delta - lmg_delta(lam, gamma)) <= 1e-12
            want = lmg_commutator_d(lam, gamma)
            assert coeff_diff(cs.D, want) <= 1e-12 * max(1.0, want.max_abs())

    def test_isotropic_point_commutes(self):
        with pytest.raises(CommutingPairError):
            derive_critical_structure(lmg_effective(0.5, 1.0), encoding_frequency())


class TestEncodings:
    def test_frequency(self):
        op = encoding_frequency()
        assert op.c_n == 1.0 and op.max_abs() == 1.0

    def test_displacement(self):
        op = encoding_displacement()
        assert op.c_a == pytest.approx(1.0 / np.sqrt(2.0))
        assert op.c_ad == pytest.approx(1.0 / np.sqrt(2.0))

    def test_displacement_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.9), encoding_displacement())
        assert abs(cs.Delta - (1.0 - 0.81)) <= 1e-12


class TestModelParams:
    def test_round_trip(self):
        params = ModelParams("LMG-frequency", omega=1.0, lam=0.4, gamma=2.0)
        assert ModelParams.from_dict(params.to_dict()) == params

    def test_lambda_key_parsing(self):
        params = ModelParams.from_dict({"variant": "LMG-frequency", "lambda": 0.3, "gamma": 2.0})
        assert params.lam == 0.3

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelParams("Ising", g=0.5)

    def test_missing_parameters(self):
        with pytest.raises(ConfigError):
            ModelParams("QRM-frequency")
        with pytest.raises(ConfigError):
            ModelParams("LMG-frequency", lam=0.5)

    @pytest.mark.parametrize("variant, fields", [
        ("QRM-frequency", {"g": 0.5, "lam": 0.4}),
        ("QRM-displacement", {"g": 0.5, "gamma": 2.0}),
        ("LMG-frequency", {"lam": 0.4, "gamma": 2.0, "g": 0.5}),
    ])
    def test_field_the_variant_lacks(self, variant, fields):
        with pytest.raises(ConfigError, match="has no"):
            ModelParams(variant, **fields)

    def test_replace_checks_the_variant(self):
        with pytest.raises(ConfigError, match="LMG-frequency has no g"):
            ModelParams("LMG-frequency", lam=0.4, gamma=2.0).replace(g=0.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams.from_dict({"variant": "QRM-frequency", "g": 0.5, "kappa": 1.0})

    def test_delta_positive_inside_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = 0.99 * rng.random()
            assert ModelParams("QRM-frequency", g=g).published_delta() > 0.0
            lam = 0.99 * rng.random()
            gamma = 1.01 + 2.0 * rng.random()
            assert ModelParams("LMG-frequency", lam=lam, gamma=gamma).published_delta() > 0.0
