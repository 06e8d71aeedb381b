import numpy as np
import pytest

from canp.errors import ConfigError, OutOfPhaseError
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
from canp.operators import CriticalStructure, Quadratic, derive_critical_structure
from quadrature_forms import Ladder, to_ladder


def coeff_diff(x, y):
    return max(abs(a - b) for a, b in zip(x, y))


def max_abs(op):
    return max(map(abs, op))


class TestQrmEffective:
    def test_free_limit(self):
        assert qrm_effective(1.0, 0.0) == encoding_frequency()

    def test_form(self):
        # ½[ω(1 − g²) X² + ω P²] − ω/2
        assert qrm_effective(2.0, 0.5) == Quadratic(gxx=2.0 * 0.75, gpp=2.0, c0=-1.0)

    def test_coefficients(self):
        # ω a†a − (ωg²/4)(a† + a)²: c_n = ω(1 − g²/2), c_aa = c_adad = c_1 = −ωg²/4.
        quarter = -2.0 * 0.25 / 4.0
        want = Ladder(2.0 * (1.0 - 0.125), quarter, quarter, 0j, 0j, quarter)
        assert coeff_diff(to_ladder(qrm_effective(2.0, 0.5)), want) <= 1e-15

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
            assert coeff_diff(cs.C, qrm_commutator_c(omega, g)) <= 1e-12 * max(1.0, max_abs(cs.C))
            assert coeff_diff(cs.D, qrm_commutator_d(omega, g)) <= 1e-12 * max(1.0, max_abs(cs.D))
            assert abs(cs.Delta - qrm_delta_frequency(omega, g)) <= 1e-12


class TestLmgEffective:
    def test_form(self):
        # ½[−2(1 − λ) X² − 2(γ − λ) P²] − λ
        assert lmg_effective(0.5, 2.0) == Quadratic(gxx=-1.0, gpp=-3.0, c0=-0.5)

    def test_coefficients(self):
        # 2λ a†a + [γ(a† − a)² − (a + a†)²]/2: c_n = 2λ − (γ + 1),
        # c_aa = c_adad = (γ − 1)/2, c_1 = −(γ + 1)/2.
        want = Ladder(2.0 * 0.5 - 3.0, 0.5, 0.5, 0j, 0j, -1.5)
        assert coeff_diff(to_ladder(lmg_effective(0.5, 2.0)), want) == 0.0

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
            assert coeff_diff(cs.D, want) <= 1e-12 * max(1.0, max_abs(want))

    def test_isotropic_point_commutes(self):
        # γ = 1 makes H_c ∝ a†a: the zero structure.
        assert derive_critical_structure(lmg_effective(0.5, 1.0), encoding_frequency()) == (
            CriticalStructure(C=Quadratic(), D=Quadratic(), Delta=0.0, residual=0.0))


class TestEncodings:
    def test_frequency(self):
        # a†a = ½(X² + P²) − ½
        assert encoding_frequency() == Quadratic(gxx=1.0, gpp=1.0, c0=-0.5)
        assert to_ladder(encoding_frequency()) == Ladder(c_n=1.0)

    def test_displacement(self):
        assert encoding_displacement() == Quadratic(vx=1.0)
        c = 1.0 / np.sqrt(2.0)
        assert coeff_diff(to_ladder(encoding_displacement()), Ladder(c_a=c, c_ad=c)) <= 1e-16

    def test_displacement_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.9), encoding_displacement())
        assert abs(cs.Delta - (1.0 - 0.81)) <= 1e-12


def _qrm_d_ladder(omega, g):
    # g²ω²[(1 − g²/2)(a†² + a²) − g²(a†a + 1/2)]
    g2w2 = g * g * omega * omega
    quad = g2w2 * (1.0 - 0.5 * g * g)
    return Ladder(-g2w2 * g * g, quad, quad, 0j, 0j, -0.5 * g2w2 * g * g)


def _lmg_d_ladder(lam, gamma):
    # 2(γ − 1)[(1 + γ − 2λ)(a†² + a²) + (1 − γ)(2a†a + 1)]
    pre = 2.0 * (gamma - 1.0)
    quad, diag = pre * (1.0 + gamma - 2.0 * lam), pre * (1.0 - gamma)
    return Ladder(2.0 * diag, quad, quad, 0j, 0j, diag)


@pytest.mark.parametrize("published, ladder, args", [
    # (iωg²/2)(a†² − a²)
    (qrm_commutator_c, lambda w, g: Ladder(c_aa=-0.5j * w * g * g, c_adad=0.5j * w * g * g),
     (1.3, 0.7)),
    (qrm_commutator_d, _qrm_d_ladder, (1.3, 0.7)),
    (lmg_commutator_d, _lmg_d_ladder, (0.4, 2.5)),
], ids=["QRM C", "QRM D", "LMG D"])
def test_published_forms_are_the_printed_ladder_operators(published, ladder, args):
    # The regression data were converted from the paper's ladder notation.
    want = ladder(*args)
    assert coeff_diff(to_ladder(published(*args)), want) <= 1e-15 * max(1.0, max_abs(want))


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
        lmg = ModelParams("LMG-frequency", lam=0.4, gamma=2.0)
        with pytest.raises(ConfigError, match="LMG-frequency has no g"):
            lmg._replace(g=0.5)
        # Every other way of building one checks it as well.
        with pytest.raises(ConfigError, match="LMG-frequency has no g"):
            ModelParams._make(("LMG-frequency", 1.0, 0.5, 0.4, 2.0))
        with pytest.raises(ConfigError, match="unknown variant"):
            lmg._replace(variant="Ising")
        with pytest.raises(ConfigError, match="omega must be positive"):
            lmg._replace(omega=0.0)
        with pytest.raises(ConfigError, match="requires lambda and gamma"):
            ModelParams._make(("LMG-frequency", 1.0, None, 0.4, None))
        assert ModelParams._make(lmg) == lmg._replace() == lmg

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
