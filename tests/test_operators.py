import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canp.errors import (
    CommutingPairError,
    ConditionViolatedError,
    NegativeDeltaError,
    NonFiniteError,
    NotHermitianError,
)
from canp.models import lmg_effective, qrm_effective
from canp.operators import (
    HERMITIAN_TOL,
    QuadraticOperator,
    commutator,
    derive_critical_structure,
    to_quadrature_form,
)
from quadrature_forms import from_quadrature_form, hermitian_within_tolerance

N = QuadraticOperator.number()
A = QuadraticOperator(c_a=1.0)
AD = QuadraticOperator(c_ad=1.0)


def random_operator(rng) -> QuadraticOperator:
    c = rng.standard_normal(12)
    return QuadraticOperator(
        c_n=complex(c[0], c[1]),
        c_aa=complex(c[2], c[3]),
        c_adad=complex(c[4], c[5]),
        c_a=complex(c[6], c[7]),
        c_ad=complex(c[8], c[9]),
        c_1=complex(c[10], c[11]),
    )


def random_hermitian(rng) -> QuadraticOperator:
    op = random_operator(rng)
    # ½(O + O†), where O† swaps a with a† and a² with a†² and conjugates.
    n, aa, adad, a, ad, one = (c.conjugate() for c in op.coeffs())
    return 0.5 * (op + QuadraticOperator(n, adad, aa, ad, a, one))


def op_distance(x: QuadraticOperator, y: QuadraticOperator) -> float:
    return max(abs(a - b) for a, b in zip(x.coeffs(), y.coeffs()))


class TestCommutator:
    def test_ladder_identity(self):
        assert op_distance(commutator(N, A), -1.0 * A) == 0.0
        assert op_distance(commutator(N, AD), AD) == 0.0

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            op = random_operator(rng)
            assert commutator(op, op).max_abs() == 0.0

    def test_number_ladder_pair(self):
        # [a², a†²] = 4 a†a + 2
        aa = QuadraticOperator(c_aa=1.0)
        adad = QuadraticOperator(c_adad=1.0)
        got = commutator(aa, adad)
        assert op_distance(got, QuadraticOperator(c_n=4.0, c_1=2.0)) == 0.0

    def test_rabi_frequency_commutator_matches_printed_value(self):
        # i [H_eff(omega=1, g=0.9), a†a] = (i 0.405)((a†)² − a²)
        got = 1j * commutator(qrm_effective(1.0, 0.9), N)
        assert abs(got.c_adad - 0.405j) < 1e-12
        assert abs(got.c_aa + 0.405j) < 1e-12
        assert abs(got.c_n) < 1e-15 and abs(got.c_a) < 1e-15

    def test_bilinear_antisymmetric(self):
        rng = np.random.default_rng(2)
        x, y, z = (random_operator(rng) for _ in range(3))
        lhs = commutator(x + 2.5 * y, z)
        rhs = commutator(x, z) + 2.5 * commutator(y, z)
        assert op_distance(lhs, rhs) < 1e-13 * max(1.0, lhs.max_abs())
        assert op_distance(commutator(x, y), -1.0 * commutator(y, x)) < 1e-14 * max(
            1.0, commutator(x, y).max_abs()
        )

    def test_jacobi_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = (random_hermitian(rng) for _ in range(3))
            total = (
                commutator(x, commutator(y, z))
                + commutator(y, commutator(z, x))
                + commutator(z, commutator(x, y))
            )
            scale = max(1.0, x.max_abs() * y.max_abs() * z.max_abs())
            assert total.max_abs() <= 1e-12 * scale

    def test_i_commutator_of_hermitians_is_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = random_hermitian(rng), random_hermitian(rng)
            assert (1j * commutator(x, y)).is_hermitian()


class TestArithmetic:
    # The operator is a tuple of its coefficients: every arithmetic operator
    # must be the algebra's, never tuple concatenation or repetition, and a
    # numpy scalar must not turn it into an array.
    OP = QuadraticOperator(1.0, 0.5 + 0.25j, 0.5 - 0.25j, 2.0, 2.0, -3.0)

    @pytest.mark.parametrize("expr, scale", [
        (lambda op: 2 * op, 2.0),
        (lambda op: op * 2j, 2j),
        (lambda op: np.float64(2.0) * op, 2.0),
        (lambda op: -op, -1.0),
        (lambda op: op - op, 0.0),
        (lambda op: op + op, 2.0),
    ], ids=["int*op", "op*complex", "numpy*op", "neg", "sub", "add"])
    def test_result_is_an_operator(self, expr, scale):
        got = expr(self.OP)
        assert type(got) is QuadraticOperator
        assert got.coeffs() == tuple(scale * c for c in self.OP.coeffs())

    def test_equal_operators_compare_and_hash_equal(self):
        twin = QuadraticOperator(*self.OP.coeffs())
        assert twin is not self.OP and twin == self.OP and hash(twin) == hash(self.OP)


# A coefficient part: finite, any float, or a special value.
PART = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from((0.0, math.inf, -math.inf, math.nan)))
# A gap from an exact relation, as (absolute, multiple of the tolerance at
# the operator's scale): none, a part, or a multiple within or beyond 1.
GAP = st.one_of(
    st.tuples(st.just(0.0) | PART, st.just(0.0)),
    st.tuples(st.just(0.0), st.sampled_from((0.5, -0.5, 0.999, -0.999, 2.0, -2.0, 1e3))),
)


class TestHermiticity:
    def test_flag(self):
        assert N.is_hermitian()
        assert not A.is_hermitian()
        assert QuadraticOperator(c_aa=1 + 2j, c_adad=1 - 2j).is_hermitian()
        assert not QuadraticOperator(c_n=1j).is_hermitian()

    def test_equal_infinite_squeezing_is_not_hermitian(self):
        # c_adad − conj(c_aa) = inf − inf is nan, which no tolerance admits.
        op = QuadraticOperator(c_n=1.0, c_aa=complex(math.inf), c_adad=complex(math.inf))
        assert not op.is_hermitian()
        assert not hermitian_within_tolerance(op)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_tolerance_rule(self, data):
        # Hermitian parts that are finite, huge, ±inf or nan, with every
        # relation exact, or each broken by nothing, by a fraction or a
        # multiple of the tolerance, or by any float.
        c_n, c_1, aa_re, aa_im, a_re, a_im = data.draw(st.tuples(*[PART] * 6))
        c_aa, c_a = complex(aa_re, aa_im), complex(a_re, a_im)
        scale = HERMITIAN_TOL * max(1.0, abs(c_n), abs(c_1), abs(c_aa), abs(c_a))
        gaps = [0.0] * 6 if data.draw(st.booleans()) else [
            multiple * scale if multiple else absolute
            for absolute, multiple in data.draw(st.tuples(*[GAP] * 6))]
        op = QuadraticOperator(
            c_n=complex(c_n, gaps[0]),
            c_aa=c_aa,
            c_adad=c_aa.conjugate() + complex(gaps[1], gaps[2]),
            c_a=c_a,
            c_ad=c_a.conjugate() + complex(gaps[3], gaps[4]),
            c_1=complex(c_1, gaps[5]),
        )
        assert op.is_hermitian() == hermitian_within_tolerance(op)


class TestDeriveCriticalStructure:
    def test_qrm_frequency_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.96), N)
        assert abs(cs.Delta - 4.0 * (1.0 - 0.96**2)) < 1e-12
        assert cs.residual < 1e-12

    def test_qrm_displacement_gap(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.9), QuadraticOperator.position())
        assert abs(cs.Delta - (1.0 - 0.81)) < 1e-12

    def test_lmg_gap(self):
        from canp.models import lmg_effective

        cs = derive_critical_structure(lmg_effective(0.5, 2.0), N)
        assert abs(cs.Delta - 12.0) < 1e-12

    def test_structure_operators_hermitian(self):
        cs = derive_critical_structure(qrm_effective(1.0, 0.8), N)
        assert cs.C.is_hermitian() and cs.D.is_hermitian()

    def test_gamma_relation(self):
        # [H_c, Γ] = √Δ Γ with Γ = −i√Δ C + D, coefficientwise.
        cs = derive_critical_structure(qrm_effective(1.0, 0.7), N)
        gamma_op = -1j * math.sqrt(cs.Delta) * cs.C + cs.D
        lhs = commutator(qrm_effective(1.0, 0.7), gamma_op)
        rhs = math.sqrt(cs.Delta) * gamma_op
        assert op_distance(lhs, rhs) <= 1e-9 * max(1.0, rhs.max_abs())

    def test_commuting_pair(self):
        with pytest.raises(CommutingPairError):
            derive_critical_structure(N, N)
        with pytest.raises(CommutingPairError):
            derive_critical_structure(qrm_effective(1.0, 0.0), N)

    def test_condition_violated(self):
        mixed = QuadraticOperator(c_n=1.0, c_aa=0.3, c_adad=0.3, c_a=0.5, c_ad=0.5)
        with pytest.raises(ConditionViolatedError):
            derive_critical_structure(mixed, N)

    def test_negative_delta(self):
        hyperbolic = QuadraticOperator(c_aa=0.5, c_adad=0.5)
        with pytest.raises(NegativeDeltaError):
            derive_critical_structure(hyperbolic, N)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            derive_critical_structure(A, N)

    @pytest.mark.parametrize("hc, htheta, names", [
        # [H_c, H_θ] ~ 1e300 is finite; D = [H_c, [H_c, H_θ]] overflows.
        (lmg_effective(0.4, 1e300), N, "D nan or inf"),
        # [H_c, H_θ] ~ 1e400 overflows already.
        (QuadraticOperator(c_n=1e200), QuadraticOperator(c_aa=1e200, c_adad=1e200),
         "C, D nan or inf"),
        # C and D are finite, but |[H_c, H_θ]|² in the fit of Δ overflows.
        (qrm_effective(1.0, 0.9), QuadraticOperator(c_n=1e300, c_aa=1e300, c_adad=1e300),
         "Δ nan or inf"),
    ])
    def test_non_finite_structure(self, hc, htheta, names):
        # A nan Δ would pass the residual test; it must not leave the derivation,
        # and an infinite C must not pass for a commuting pair.
        with pytest.raises(NonFiniteError, match=f"critical structure is not finite \\({names}\\)"):
            derive_critical_structure(hc, htheta)


class TestQuadratureForm:
    def test_number_operator(self):
        g_mat, v, c0 = to_quadrature_form(N)
        assert np.allclose(g_mat, np.eye(2))
        assert np.allclose(v, 0.0)
        assert c0 == -0.5

    def test_position_operator(self):
        g_mat, v, c0 = to_quadrature_form(QuadraticOperator.position())
        assert np.allclose(g_mat, 0.0)
        assert np.allclose(v, [1.0, 0.0])
        assert c0 == 0.0

    def test_rabi_effective(self):
        g_mat, v, _ = to_quadrature_form(qrm_effective(1.0, 0.9))
        assert abs(g_mat[0, 0] - (1.0 - 0.81)) < 1e-12
        assert abs(g_mat[1, 1] - 1.0) < 1e-12
        assert abs(g_mat[0, 1]) < 1e-15 and np.allclose(v, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            op = random_hermitian(rng)
            back = from_quadrature_form(*to_quadrature_form(op))
            assert op_distance(back, op) <= 1e-14 * max(1.0, op.max_abs())

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            to_quadrature_form(A)
