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


# Pair kinds for the stacked derivation, each drawn from a seed, and the
# changes that push a pair to the float range's edges; a stack mixes them in
# any order.
STACK_KINDS = ("closes", "linear", "commuting", "hyperbolic", "open", "singular", "shifted")
STACK_EDGES = (None, "non-finite", "underflow", "overflow")


def stack_pair(kind: str, seed: int, edge: str | None = None) -> tuple[Quadratic, Quadratic]:
    """One (H_c, H_θ) of a kind: closes (quadratic H_θ, Δ = 4 det G_c), linear
    (linear H_θ, Δ = det G_c), commuting (H_θ ∝ H_c), hyperbolic (det G_c < 0:
    NegativeDeltaError), open (H_θ with both parts: ConditionViolatedError),
    singular (G_c = diag(0, ±p) with linear H_θ: Δ = ±0) or shifted (H_c with
    a linear part, H_θ = k·½rᵀG_c r: C is linear but for rounding in its
    quadratic part, Δ = det G_c). An edge then puts an
    inf or nan at any of the twelve entries (non-finite), scales G_c below
    ~1e-154 so that det G_c underflows (underflow), or scales both forms up
    by up to 1e160 so that the nested commutators or their residual reach
    the float range's end (overflow)."""
    rng = np.random.default_rng(seed)
    gxx, gpp = rng.uniform(0.5, 2.0, 2).tolist()  # Python floats, as the scalar path takes
    hc = Quadratic(gxx, rng.uniform(-0.4, 0.4), gpp, c0=rng.standard_normal())
    quadratic = Quadratic(*rng.standard_normal(3).tolist(), c0=rng.standard_normal())
    linear = Quadratic(vx=rng.standard_normal(), vp=rng.standard_normal())
    k = rng.uniform(0.1, 3.0)
    htheta = {"linear": linear, "singular": linear, "commuting": Quadratic._make(k * x for x in hc),
              "open": quadratic._replace(vx=linear.vx, vp=linear.vp)}.get(kind, quadratic)
    if kind == "hyperbolic":
        hc = hc._replace(gpp=-gpp)
    if kind == "singular":
        hc = Quadratic(0.0, 0.0, [gpp, -gpp][rng.integers(2)], c0=hc.c0)
    if kind == "shifted":
        hc, htheta = hc._replace(vx=linear.vx, vp=linear.vp), Quadratic(*(k * x for x in hc[:3]))
    if edge == "non-finite":
        entries = [*hc, *htheta]
        entries[rng.integers(12)] = [math.inf, -math.inf, math.nan][rng.integers(3)]
        hc, htheta = Quadratic(*entries[:6]), Quadratic(*entries[6:])
    elif edge in ("underflow", "overflow"):
        scale_c, scale_theta = ((1e-160, 1.0) if edge == "underflow"
                                else (10.0 ** rng.uniform(60.0, 160.0, 2)).tolist())
        hc = Quadratic._make(scale_c * x for x in hc)
        htheta = Quadratic._make(scale_theta * x for x in htheta)
    return hc, htheta


def scalar_outcome(hc, htheta):
    """derive_critical_structure of one pair: its structure, or the error it raises."""
    try:
        return derive_critical_structure(hc, htheta)
    except (ConditionViolatedError, NegativeDeltaError, NonFiniteError) as exc:
        return exc


def stack_of(pairs) -> tuple[Quadratic, Quadratic]:
    """The pairs as one stacked pair: each entry an array over the pairs."""
    return tuple(Quadratic(*np.array(forms).T) for forms in zip(*pairs))


def assert_stack_is_scalar(pairs):
    """A stack of the pairs raises the error of its first failing pair, message
    and all, and the stack of the passing pairs derives what each alone
    derives, bit for bit."""
    outcomes = [scalar_outcome(*pair) for pair in pairs]
    failed = [out for out in outcomes if isinstance(out, Exception)]
    if failed:
        with pytest.raises(type(failed[0])) as info:
            derive_critical_structure(*stack_of(pairs))
        assert str(info.value) == str(failed[0])
    passed = [(pair, out) for pair, out in zip(pairs, outcomes) if out not in failed]
    if not passed:
        return
    cs = derive_critical_structure(*stack_of([pair for pair, _ in passed]))
    stacked = [*cs.C, *cs.D, cs.Delta, cs.residual]
    for i, (_, out) in enumerate(passed):
        for field, value in zip(stacked, (*out.C, *out.D, out.Delta, out.residual)):
            assert field.shape == (len(passed),) and field.dtype == np.float64
            assert field[i].tobytes() == np.float64(value).tobytes()


def with_c0(pair, which: int, c0: float):
    """The pair with the constant of H_c (which = 0) or of H_θ (1) replaced."""
    return tuple(form._replace(c0=c0) if i == which else form for i, form in enumerate(pair))


class TestStackedDerivation:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(STACK_KINDS), st.integers(0, 2**32 - 1),
                              st.sampled_from(STACK_EDGES)), min_size=1, max_size=6))
    def test_stack_is_the_scalar_derivation(self, draws):
        assert_stack_is_scalar([stack_pair(*draw) for draw in draws])

    # The scalar derivation's own rules at the float range's edges: its
    # maxima skip a nan that is not first (a commuting pair with a nan
    # constant stays commuting), the sum that tests C and D runs left to
    # right (this D's entries are finite, their sum is not), and a zero Δ
    # times a C of 1e-24 does not divide the residual by zero.
    @pytest.mark.parametrize("pair", [
        with_c0(stack_pair("commuting", 5), 0, math.nan),
        with_c0(stack_pair("commuting", 6), 1, math.nan),
        with_c0(stack_pair("closes", 7), 1, math.inf),
        stack_pair("commuting", 1172, "overflow"),
        (Quadratic(gpp=1e-6), Quadratic(vx=1e-18)),
    ], ids=["nan-c0-of-hc", "nan-c0-of-htheta", "inf-c0-of-htheta", "sum-overflows",
            "tiny-c-at-zero-delta"])
    def test_float_range_edges(self, pair):
        assert_stack_is_scalar([stack_pair("closes", 1), pair, stack_pair("linear", 2)])

    @pytest.mark.parametrize("kind, edge, error", [
        ("hyperbolic", None, NegativeDeltaError), ("open", None, ConditionViolatedError),
        ("closes", "underflow", NonFiniteError),
    ])
    def test_failing_element_after_passing_ones(self, kind, edge, error):
        pairs = [stack_pair("closes", 1), stack_pair("commuting", 2), stack_pair(kind, 3, edge),
                 stack_pair("open", 4)]
        with pytest.raises(error) as want:
            derive_critical_structure(*pairs[2])
        with pytest.raises(error) as got:
            derive_critical_structure(*stack_of(pairs))
        assert str(got.value) == str(want.value)

    def test_float_entries_broadcast_against_the_stack(self):
        # A sweep's stack: H_c's entries of shape (k, 1), H_θ floats. Every
        # field has the broadcast shape, a commuting value the zero structure.
        g = np.array([0.0, 0.5, 0.9])[:, None]
        cs = derive_critical_structure(qrm_effective(1.0, g), N)
        for field in (*cs.C, *cs.D, cs.Delta, cs.residual):
            assert type(field) is np.ndarray and field.shape == (3, 1)
        for i, value in enumerate(g.ravel().tolist()):
            want = derive_critical_structure(qrm_effective(1.0, value), N)
            assert [float(x[i, 0]) for x in (*cs.C, *cs.D, cs.Delta, cs.residual)] == [
                *want.C, *want.D, want.Delta, want.residual]
