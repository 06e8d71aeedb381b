import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canp import fock
from canp.errors import ConditionViolatedError, NegativeDeltaError, NonFiniteError
from canp.models import encoding_displacement, encoding_frequency, lmg_effective, qrm_effective
from canp.operators import CriticalStructure, Quadratic, commutator, derive_critical_structure
from quadrature_forms import Ladder, from_ladder, ladder_commutator, ladder_matrix, to_ladder

N = encoding_frequency()
X = Quadratic(vx=1.0)
P = Quadratic(vp=1.0)


def random_form(rng) -> Quadratic:
    return Quadratic(*rng.standard_normal(6))


def combine(*terms) -> Quadratic:
    """Σ s·op over (s, op) terms, entrywise."""
    return Quadratic._make(sum(s * op[i] for s, op in terms) for i in range(6))


def max_abs(op) -> float:
    return max(map(abs, op))


def op_distance(x, y) -> float:
    return max(abs(a - b) for a, b in zip(x, y))


class TestCommutator:
    def test_oscillator_rotates_quadratures(self):
        # i[a†a, X] = P and i[a†a, P] = −X: the free flow is a rotation.
        assert commutator(N, X) == P
        assert commutator(N, P) == Quadratic(vx=-1.0)

    def test_canonical_pairs(self):
        # i[X, P] = −1 and i[X²/2, P²/2] = −(XP + PX)/2.
        assert commutator(X, P) == Quadratic(c0=-1.0)
        assert commutator(Quadratic(gxx=1.0), Quadratic(gpp=1.0)) == Quadratic(gxp=-1.0)

    def test_ladder_identity(self):
        # The reference route's constants: [a†a, a] = −a and [a†a, a†] = a†.
        assert ladder_commutator(Ladder(c_n=1.0), Ladder(c_a=1.0)) == Ladder(c_a=-1.0)
        assert ladder_commutator(Ladder(c_n=1.0), Ladder(c_ad=1.0)) == Ladder(c_ad=1.0)

    def test_number_ladder_pair(self):
        # [a², a†²] = 4 a†a + 2, so with A = (a² + a†²)/2 = (X² − P²)/2 and
        # B = i(a†² − a²)/2 = (XP + PX)/2, i[A, B] = −(2 a†a + 1) = −(X² + P²).
        got = ladder_commutator(Ladder(c_aa=1.0), Ladder(c_adad=1.0))
        assert got == Ladder(c_n=4.0, c_1=2.0)
        a, b = Quadratic(gxx=1.0, gpp=-1.0), Quadratic(gxp=1.0)
        assert commutator(a, b) == Quadratic(gxx=-2.0, gpp=-2.0)

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            op = random_form(rng)
            assert max_abs(commutator(op, op)) == 0.0

    def test_rabi_frequency_commutator_matches_printed_value(self):
        # i [H_eff(omega=1, g=0.9), a†a] = (i 0.405)((a†)² − a²) = 0.405 (XP + PX)
        got = commutator(qrm_effective(1.0, 0.9), N)
        assert abs(got.gxp - 0.81) < 1e-12
        assert got.gxx == got.gpp == got.vx == got.vp == got.c0 == 0.0

    def test_bilinear_antisymmetric(self):
        rng = np.random.default_rng(2)
        x, y, z = (random_form(rng) for _ in range(3))
        lhs = commutator(combine((1.0, x), (2.5, y)), z)
        rhs = combine((1.0, commutator(x, z)), (2.5, commutator(y, z)))
        assert op_distance(lhs, rhs) < 1e-13 * max(1.0, max_abs(lhs))
        assert op_distance(commutator(x, y), combine((-1.0, commutator(y, x)))) == 0.0

    def test_jacobi_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = (random_form(rng) for _ in range(3))
            total = combine(
                (1.0, commutator(x, commutator(y, z))),
                (1.0, commutator(y, commutator(z, x))),
                (1.0, commutator(z, commutator(x, y))),
            )
            scale = max(1.0, max_abs(x) * max_abs(y) * max_abs(z))
            assert max_abs(total) <= 1e-12 * scale

    def test_i_commutator_of_hermitians_is_hermitian(self):
        # from_ladder reads only half the coefficients of the reference's
        # i[A, B]; the other half must be their conjugates.
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = to_ladder(random_form(rng)), to_ladder(random_form(rng))
            c_n, c_aa, c_adad, c_a, c_ad, c_1 = (1j * c for c in ladder_commutator(x, y))
            scale = 1e-15 * max(1.0, max_abs(x)) * max(1.0, max_abs(y))
            assert abs(c_n.imag) <= scale and abs(c_1.imag) <= scale
            assert abs(c_adad - c_aa.conjugate()) <= scale
            assert abs(c_ad - c_a.conjugate()) <= scale


class TestArithmetic:
    def test_equal_operators_compare_and_hash_equal(self):
        # A form is the tuple of its entries, so it compares and hashes by value.
        op = Quadratic(1.0, 0.5, -0.25, 2.0, 2.0, -3.0)
        twin = Quadratic(*op)
        assert twin is not op and twin == op and hash(twin) == hash(op)


_ENTRY = st.floats(-2.0, 2.0)
_EIGEN = st.floats(0.1, 2.0)
_ANGLE = st.floats(0.0, math.pi)


def _rotated(e1: float, e2: float, angle: float, vx: float, vp: float, c0: float) -> Quadratic:
    """The form with G = R diag(e1, e2) Rᵀ, R the rotation by angle."""
    c, s = math.cos(angle), math.sin(angle)
    return Quadratic(e1 * c * c + e2 * s * s, (e1 - e2) * c * s, e1 * s * s + e2 * c * c,
                     vx, vp, c0)


# Forms of each kind the algebra meets: any entries; hyperbolic (det G < 0);
# linear only (G = 0); near-degenerate (det G within 1e-9 of 0).
_GENERAL = st.builds(Quadratic, *[_ENTRY] * 6)
_HYPERBOLIC = st.builds(lambda e1, e2, *rest: _rotated(e1, -e2, *rest),
                        _EIGEN, _EIGEN, _ANGLE, _ENTRY, _ENTRY, _ENTRY)
_LINEAR = st.builds(lambda vx, vp, c0: Quadratic(vx=vx, vp=vp, c0=c0), _ENTRY, _ENTRY, _ENTRY)
_DEGENERATE = st.builds(_rotated, _EIGEN, st.floats(-1e-9, 1e-9), _ANGLE,
                        _ENTRY, _ENTRY, _ENTRY)
_FORM = st.one_of(_GENERAL, _HYPERBOLIC, _LINEAR, _DEGENERATE)


def _nearly(op: Quadratic, eps: float, other: Quadratic) -> Quadratic:
    """op + eps·other: with op, a pair whose commutator nearly vanishes."""
    return combine((1.0, op), (eps, other))


# Pairs of independent forms, and near-commuting pairs (B within 1e-9 of A).
_PAIR = st.one_of(
    st.tuples(_FORM, _FORM),
    st.builds(lambda a, eps, b: (a, _nearly(a, eps, b)), _FORM, st.floats(-1e-9, 1e-9), _FORM),
)


class TestLadderRoute:
    """The form commutator and the number-basis bands against six complex
    ladder coefficients and [a, a†] = 1 (tests/quadrature_forms.py)."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_PAIR)
    def test_form_commutator_matches_ladder_commutator(self, pair):
        a, b = pair
        want = Ladder._make(1j * c for c in ladder_commutator(to_ladder(a), to_ladder(b)))
        got = commutator(a, b)
        scale = max(1.0, max_abs(a)) * max(1.0, max_abs(b))
        assert op_distance(got, from_ladder(want)) <= 8.0 * np.finfo(float).eps * scale
        # The bands fock reads from the form are the ladder route's matrix.
        dim = 7
        m = fock.build_matrix(fock._bands(got, dim))
        assert np.max(np.abs(m - ladder_matrix(want, dim))) <= 16.0 * np.finfo(float).eps * dim * scale


class TestQuadratureForm:
    """The reference route's conversion from ladder coefficients to (G, v, c0)."""

    def test_number_operator(self):
        assert from_ladder(Ladder(c_n=1.0)) == Quadratic(gxx=1.0, gpp=1.0, c0=-0.5) == N

    def test_position_operator(self):
        c = 1.0 / math.sqrt(2.0)
        got = from_ladder(Ladder(c_a=c, c_ad=c))
        assert op_distance(got, X) <= 1e-16

    def test_rabi_effective(self):
        # ω a†a − (ωg²/4)(a† + a)² at ω = 1, g = 0.9: G = diag(1 − g², 1), c0 = −½.
        quarter = -0.81 / 4.0
        got = from_ladder(Ladder(1.0 - 0.405, quarter, quarter, 0j, 0j, quarter))
        assert op_distance(got, Quadratic(gxx=1.0 - 0.81, gpp=1.0, c0=-0.5)) < 1e-15
        assert op_distance(got, qrm_effective(1.0, 0.9)) < 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_FORM)
    def test_round_trip(self, op):
        back = from_ladder(to_ladder(op))
        assert op_distance(back, op) <= 4.0 * np.finfo(float).eps * max(1.0, max_abs(op))


class TestDeriveCriticalStructure:
    def test_qrm_frequency_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.96), N)
        assert abs(cs.Delta - 4.0 * (1.0 - 0.96**2)) < 1e-12
        assert cs.residual < 1e-12

    def test_qrm_displacement_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.9), encoding_displacement())
        assert abs(cs.Delta - (1.0 - 0.81)) < 1e-12

    def test_lmg_gap(self):
        cs = derive_critical_structure(lmg_effective(0.5, 2.0), N)
        assert abs(cs.Delta - 12.0) < 1e-12

    def test_structure_operators_hermitian(self):
        # C and D are forms, and their number-basis matrices are Hermitian.
        for htheta in (N, X):
            cs = derive_critical_structure(qrm_effective(1.0, 0.8), htheta)
            for op in (cs.C, cs.D):
                assert type(op) is Quadratic
                m = fock.build_matrix(fock._bands(op, 9))
                assert np.array_equal(m, m.conj().T)

    def test_gamma_relation(self):
        # [H_c, Γ] = √Δ Γ with Γ = −i√Δ C + D, coefficientwise on the ladder route.
        hc = qrm_effective(1.0, 0.7)
        cs = derive_critical_structure(hc, N)
        root = math.sqrt(cs.Delta)
        gamma_op = Ladder._make(-1j * root * c + d for c, d in zip(to_ladder(cs.C),
                                                                   to_ladder(cs.D)))
        lhs = ladder_commutator(to_ladder(hc), gamma_op)
        rhs = Ladder._make(root * c for c in gamma_op)
        assert op_distance(lhs, rhs) <= 1e-9 * max(1.0, max_abs(rhs))

    def test_structure_relations(self):
        # i[H_c, C] = −D and i[H_c, D] = Δ C: the real and imaginary parts of
        # [H_c, Γ] = √Δ Γ with Γ = −i√Δ C + D.
        hc = qrm_effective(1.0, 0.7)
        cs = derive_critical_structure(hc, N)
        assert op_distance(commutator(hc, cs.C), combine((-1.0, cs.D))) == 0.0
        want = combine((cs.Delta, cs.C))
        assert op_distance(commutator(hc, cs.D), want) <= 1e-12 * max(1.0, max_abs(want))

    def test_commuting_pair(self):
        # The zero structure: C = D = 0, and Δ = 0 and residual 0 by convention.
        zero = CriticalStructure(C=Quadratic(), D=Quadratic(), Delta=0.0, residual=0.0)
        assert derive_critical_structure(N, N) == zero
        assert derive_critical_structure(qrm_effective(1.0, 0.0), N) == zero

    def test_condition_violated(self):
        # a†a + 0.3(a² + a†²) + 0.5(a + a†)
        mixed = Quadratic(gxx=1.6, gpp=0.4, vx=0.5 * math.sqrt(2.0))
        with pytest.raises(ConditionViolatedError):
            derive_critical_structure(mixed, N)

    def test_negative_delta(self):
        hyperbolic = Quadratic(gxx=1.0, gpp=-1.0)  # (a² + a†²)/2 = (X² − P²)/2
        with pytest.raises(NegativeDeltaError):
            derive_critical_structure(hyperbolic, N)

    def test_shifted_centre(self):
        # H_c = ½(r − r0)ᵀG(r − r0) with r0 ≠ 0 has v_c = −G r0. A shift of the
        # origin keeps det G and the quadratic part of C, so an H_θ quadratic or
        # linear in r − r0 closes with 4 det G or det G; one with both parts fails.
        # H_θ = k·½rᵀGr is linear in r − r0 up to a part that commutes with H_c,
        # which leaves C a quadratic part of a few ulps.
        def shifted(g, w, r0):
            v = w - g @ r0
            return Quadratic(g[0, 0], g[0, 1], g[1, 1], v[0], v[1], 0.5 * r0 @ g @ r0 - w @ r0)

        eps = np.finfo(float).eps
        rng = np.random.default_rng(20261019)
        zero = np.zeros((2, 2))
        for _ in range(200):
            phi = rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            g = rot @ np.diag(rng.uniform(1.0, 2.0, 2)) @ rot.T
            g = 0.5 * (g + g.T)
            r0 = rng.standard_normal(2)
            hc = shifted(g, np.zeros(2), r0)
            det = float(Fraction(hc.gxx) * Fraction(hc.gpp) - Fraction(hc.gxp) ** 2)
            g_theta = rng.standard_normal((2, 2))
            g_theta = g_theta + g_theta.T
            w = rng.standard_normal(2)
            k = rng.uniform(0.1, 3.0)
            for htheta, want in ((shifted(g_theta, np.zeros(2), r0), 4.0 * det),
                                 (shifted(zero, w, r0), det),
                                 (Quadratic(k * hc.gxx, k * hc.gxp, k * hc.gpp), det)):
                cs = derive_critical_structure(hc, htheta)
                assert abs(cs.Delta - want) <= 4.0 * eps * want
                assert cs.residual <= 1e-12
            with pytest.raises(ConditionViolatedError):
                derive_critical_structure(hc, shifted(g_theta, w, r0))

    @pytest.mark.parametrize("hc, htheta, names", [
        # C ~ 1e300 is finite; D = i[C, H_c] overflows.
        (lmg_effective(0.4, 1e300), N, "D nan or inf"),
        # C ~ 1e400 overflows already.
        (Quadratic(gxx=1e200, gpp=1e200), Quadratic(gxx=2e200, gpp=-2e200), "C, D nan or inf"),
        # C ~ 1e-300 is not zero, but D underflows, and so does det G_c ~ ω².
        (qrm_effective(1e-300, 0.9), N, "Δ nan or inf"),
    ])
    def test_non_finite_structure(self, hc, htheta, names):
        # A nan Δ would pass the residual test; it must not leave the derivation,
        # and an infinite C must not pass for a commuting pair.
        with pytest.raises(NonFiniteError, match=f"critical structure is not finite \\({names}\\)"):
            derive_critical_structure(hc, htheta)

    def test_delta_does_not_depend_on_encoding_scale(self):
        # Δ = 4 det G_c comes from H_c alone, so H_θ = s·a†a gives the same
        # bits for every s from 1e-200 to 1e290.
        hc = qrm_effective(1.0, 0.9)
        want = derive_critical_structure(hc, N).Delta
        assert want == 4.0 * hc.gxx * hc.gpp
        for s in (1e-200, 1e-150, 1.0, 1e150, 1e290):
            cs = derive_critical_structure(hc, Quadratic(gxx=s, gpp=s, c0=-0.5 * s))
            assert cs.Delta == want
            assert cs.residual <= 1e-12
