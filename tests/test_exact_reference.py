"""The closed-form QFI and enhancement ratio against a 50-digit reference.

The reference takes the shipped configs' parameters (ω, g or λ, γ, α, t_θ)
and each float preparation time t_c as exact binary numbers, builds the
model's quadrature form (G, v) in mpmath, and evolves the coherent probe's
moments by the matrix exponential of ΩG_c (mpmath's expm). The QFI is
4 t_θ² Var[H_θ] in that prepared state and the ratio divides it by the
direct baseline 4 (t_c + t_θ)² Var[H_θ] in the coherent state of equal mean
photon number. canp takes the other route, the variance of the generator
H_θ + sC − qD in the bare probe, read as the quadratic form wᵀΣw in the
weights w = (1, s, −q) and the covariances Σ of (H_θ, C, D) there, so the
two share only the parameters and t_c, and the gap is canp's rounding error.

The gate is the worst relative error over 40 points √Δ·t_c ∈ (0, 4π].
Near the critical point (g, λ → 1) an error in G_c grows like 1/(1 − g²)
into Δ and C, D, so writing G_xx = ω(1 − g)(1 + g) rather than ω − ωg² is
what keeps the error at rounding level. What is left is the rounding of the
phase √Δ·t_c, amplified by the QFI's own condition number κ = |t_c ∂ln F/∂t_c|
near the multiples of 2π: κε is 1.3e-14 for LMG at λ = 0.995 (at
√Δ·t_c = 3.9π) and 5e-14 to 8e-14 at 0.9999, so no double-precision route can
be held to 1e-14 there.

Δ itself is pinned to one rounding against the 50-digit ratio of
i[H_c, D] to C, which does not use det G_c. The thresholds of validate's
two brackets are held against the root of the 50-digit R − 1 at
t_c = π/√Δ, with Δ and t_c in 50 digits too (`reference_threshold`).

`reference_homodyne` carries the prepared state through the encoding at θ
by the matrix exponential of ΩG_θ·θ·t_θ and gives ⟨P⟩, Var P and the
homodyne Fisher information, whose θ-derivatives it takes by mpmath.diff;
canp reads them off the encoding flow's closed form instead.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from canp import ModelParams, Protocol
from canp.operators import derive_critical_structure
from canp.validate import ALPHA as VALIDATE_ALPHA, check_thresholds

DPS = 50
ALPHA = 0.3 + 1.0j
# (variant, parameter name, fixed model fields, t_θ) of the shipped configs.
VARIANTS = {
    "QRM-frequency": ("g", {"omega": 1.0}, 12.0),
    "QRM-displacement": ("g", {"omega": 1.0}, 12.0),
    "LMG-frequency": ("lam", {"omega": 1.0, "gamma": 2.0}, 1.3),
}
# Worst admissible relative error at each distance from the critical point;
# LMG at 0.995 sits above the 1e-14 its condition number allows (see above).
BOUNDS = {0.96: 1e-14, 0.995: 1e-14, 0.9999: 1e-13}
LMG_BOUNDS = {**BOUNDS, 0.995: 5e-14}
SQRT_DELTA_TC = np.linspace(0.0, 4.0 * math.pi, 41)[1:]


def _forms(params: ModelParams, value=None):
    """(G_c, (G_θ, v_θ)) of the model in 50 digits, from its exact float parameters.

    A 50-digit value, when given, replaces g or λ.
    """
    mp = mpmath.mp
    omega = mp.mpf(params.omega)
    if params.variant.startswith("QRM"):
        g = mp.mpf(params.g if value is None else value)
        g_c = mp.matrix([[omega * (1 - g * g), 0], [0, omega]])
    else:
        lam = mp.mpf(params.lam if value is None else value)
        gamma = mp.mpf(params.gamma)
        g_c = mp.matrix([[-2 * (1 - lam), 0], [0, -2 * (gamma - lam)]])
    if params.variant == "QRM-displacement":  # X
        encoding = (mp.zeros(2, 2), mp.matrix([1, 0]))
    else:  # a†a = ½(X² + P²) − ½
        encoding = (mp.eye(2), mp.zeros(2, 1))
    return g_c, encoding


def _variance(encoding, mu, sigma):
    """Var[½rᵀGr + vᵀr] = ½Tr(GσGσ) − ¼det G + wᵀσw, w = Gμ + v, in a Gaussian state."""
    g_mat, v = encoding
    w = g_mat * mu + v
    g_sigma = g_mat * sigma
    return (sum((g_sigma * g_sigma)[i, i] for i in range(2)) / 2 - mpmath.det(g_mat) / 4
            + (w.T * sigma * w)[0, 0])


def _bracket(a, b):
    """(G, v) of i[A, B] = ½rᵀ(G_bΩG_a − G_aΩG_b)r + (G_bΩv_a − G_aΩv_b)ᵀr + const."""
    omega_sym = mpmath.mp.matrix([[0, 1], [-1, 0]])
    (g_a, v_a), (g_b, v_b) = a, b
    return (g_b * omega_sym * g_a - g_a * omega_sym * g_b,
            g_b * omega_sym * v_a - g_a * omega_sym * v_b)


def reference_delta(params: ModelParams, value=None):
    """Δ from i[H_c, D] = ΔC in 50 digits, as the ratio of (C, i[H_c, D]) to (C, C)."""
    g_c, encoding = _forms(params, value)
    hc = (g_c, mpmath.mp.zeros(2, 1))
    c_op = _bracket(hc, encoding)
    t3 = _bracket(hc, _bracket(c_op, hc))
    entries = [(x, y) for part in range(2) for x, y in zip(c_op[part], t3[part])]
    return sum(x * y for x, y in entries) / sum(x * x for x, _ in entries)


def _prepared(params: ModelParams, t_c, value=None):
    """(μ, σ, (G_θ, v_θ)): the probe's moments after the preparation for t_c, in 50 digits."""
    mp = mpmath.mp
    g_c, encoding = _forms(params, value)
    s_mat = mp.expm(mp.matrix([[0, 1], [-1, 0]]) * g_c * mp.mpf(t_c))
    mu0 = mp.sqrt(2) * mp.matrix([mp.mpf(ALPHA.real), mp.mpf(ALPHA.imag)])
    return s_mat * mu0, s_mat * s_mat.T / 2, encoding


def reference(params: ModelParams, t_c, t_theta: float, value=None):
    """(QFI, ratio) at preparation time t_c and working point θ0 = 0, in 50 digits.

    t_c is a float or a 50-digit number; a 50-digit value replaces g or λ.
    """
    mp = mpmath.mp
    mu, sigma, encoding = _prepared(params, t_c, value)
    t_theta = mp.mpf(t_theta)
    qfi = 4 * t_theta**2 * _variance(encoding, mu, sigma)
    nbar = (sigma[0, 0] + sigma[1, 1] + mu[0] ** 2 + mu[1] ** 2 - 1) / 2
    probe = mp.matrix([mp.sqrt(2 * nbar), 0])
    total = mp.mpf(t_c) + t_theta
    baseline = 4 * total**2 * _variance(encoding, probe, mp.eye(2) / 2)
    return qfi, qfi / baseline


def reference_homodyne(params: ModelParams, t_c, t_theta: float):
    """(⟨P⟩, Var P, homodyne CFI) after the encoding at θ0 = 0, in 50 digits.

    The state at θ is the prepared one moved by expm(ΩG_θ·θ·t_θ), with Ωv_θ
    as the last column of a 3 × 3 generator so that the shift comes with it.
    The CFI is (∂_θ⟨P⟩)²/V + ½(∂_θV)²/V², V = Var P, each ∂_θ by mpmath.diff.
    """
    mp = mpmath.mp
    mu, sigma, (g_theta, v_theta) = _prepared(params, t_c)
    omega_sym = mp.matrix([[0, 1], [-1, 0]])
    m, u = omega_sym * g_theta, omega_sym * v_theta
    generator = mp.matrix([[m[0, 0], m[0, 1], u[0]], [m[1, 0], m[1, 1], u[1]], [0, 0, 0]])
    t_theta = mp.mpf(t_theta)

    @functools.cache  # both derivatives sample the same θ
    def p_moments(theta):
        """(⟨P⟩, Var P) at θ, from the P row of the encoding's affine map."""
        flow = mp.expm(generator * (theta * t_theta))
        row = mp.matrix([[flow[1, 0], flow[1, 1]]])
        return (row * mu)[0] + flow[1, 2], (row * sigma * row.T)[0]

    mean_p, var_p = p_moments(0)
    d_mean = mp.diff(lambda theta: p_moments(theta)[0], 0)
    d_var = mp.diff(lambda theta: p_moments(theta)[1], 0)
    return mean_p, var_p, d_mean**2 / var_p + d_var**2 / (2 * var_p**2)


def reference_threshold(params: ModelParams, t_theta: float, bracket):
    """The root in bracket of the 50-digit R − 1 at t_c = π/√Δ, over g or λ in 50 digits.

    params gives the model's other fields; its own g or λ is not read.
    """
    def ratio_minus_one(value):
        t_c = mpmath.mp.pi / mpmath.sqrt(reference_delta(params, value))
        return reference(params, t_c, t_theta, value)[1] - 1

    return mpmath.findroot(ratio_minus_one, tuple(map(mpmath.mpf, bracket)), solver="anderson")


def worst_errors(variant: str, value: float) -> tuple[float, float]:
    """Worst relative errors of Protocol.qfi and Protocol.ratio over √Δ·t_c ∈ (0, 4π]."""
    name, fields, t_theta = VARIANTS[variant]
    params = ModelParams(variant, **fields, **{name: value})
    protocol = Protocol(*params.pair(), ALPHA)
    t_c = protocol.preparation_time(SQRT_DELTA_TC)
    qfi = protocol.qfi(t_c, t_theta)
    ratio = protocol.ratio(t_c, t_theta, 0.0)
    worst_qfi = worst_ratio = 0.0
    with mpmath.workdps(DPS):
        for i, t in enumerate(t_c):
            ref_qfi, ref_ratio = reference(params, float(t), t_theta)
            worst_qfi = max(worst_qfi, float(abs((qfi[i] - ref_qfi) / ref_qfi)))
            worst_ratio = max(worst_ratio, float(abs((ratio[i] - ref_ratio) / ref_ratio)))
    return worst_qfi, worst_ratio


@pytest.mark.parametrize("value", BOUNDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_qfi_and_ratio_are_exact_to_rounding(variant, value):
    bound = (LMG_BOUNDS if variant == "LMG-frequency" else BOUNDS)[value]
    worst_qfi, worst_ratio = worst_errors(variant, value)
    assert worst_qfi <= bound, f"QFI off by {worst_qfi:.2e}"
    assert worst_ratio <= bound, f"ratio off by {worst_ratio:.2e}"


# fig3b's rows (a†a at √Δ·t_c = π) have ∂_θ Var P = 0, so the witness of its
# CSV sees neither the CFI's variance term nor the shift that the
# displacement encoding X adds through the generator's last column.
@pytest.mark.parametrize("variant", ["QRM-frequency", "QRM-displacement"])
def test_homodyne_is_exact_to_rounding(variant):
    # ⟨P⟩ (relative to at least √Var P) and the homodyne CFI at ten phases.
    params = ModelParams(variant, omega=1.0, g=0.96)
    protocol = Protocol(*params.pair(), ALPHA)
    t_c = protocol.preparation_time(SQRT_DELTA_TC[::4])
    mean_p, cfi = protocol.state(t_c, 12.0, 0.0).mp, protocol.cfi_homodyne(t_c, 12.0, 0.0)
    with mpmath.workdps(DPS):
        for i, t in enumerate(t_c.tolist()):
            want_p, var_p, want_cfi = reference_homodyne(params, t, 12.0)
            assert abs(mean_p[i] - want_p) <= 1e-14 * max(abs(want_p), mpmath.sqrt(var_p))
            assert abs(cfi[i] - want_cfi) <= 1e-14 * want_cfi


@pytest.mark.parametrize("value", [*BOUNDS, 0.99999])
@pytest.mark.parametrize("variant", VARIANTS)
def test_delta_is_exact_to_rounding(variant, value):
    # Δ = 4 det G_c or det G_c from the float G_c, against the nested
    # commutators of the exact G_c: one rounding of ε = 2⁻⁵² at most.
    name, fields, _ = VARIANTS[variant]
    params = ModelParams(variant, **fields, **{name: value})
    delta = derive_critical_structure(*params.pair()).Delta
    with mpmath.workdps(DPS):
        want = reference_delta(params)
        assert float(abs((delta - want) / want)) <= 2.0**-52


# (variant, key in validate's thresholds report, worst distance in ulps).
# Near λ*, R − 1 changes sign several times at rounding level over a band
# about 6e-15 (≈ 108 ulps) wide, so the search may end on any of those roots.
THRESHOLDS = [
    ("QRM-frequency", "g_star", 1),
    ("LMG-frequency", "lambda_star", 128),
]


@pytest.fixture(scope="module")
def thresholds():
    return check_thresholds().measured


@pytest.mark.parametrize("variant, key, ulps", THRESHOLDS)
def test_threshold_is_near_the_50_digit_root(thresholds, variant, key, ulps):
    assert VALIDATE_ALPHA == ALPHA
    name, fields, t_theta = VARIANTS[variant]
    params = ModelParams(variant, **fields, **{name: thresholds[key]})
    with mpmath.workdps(DPS):
        root = reference_threshold(params, t_theta, thresholds[f"{key}_bracket"])
        found = thresholds[key]
        assert float(abs(found - root)) <= ulps * math.ulp(float(root)), \
            f"{key} = {found!r} is {float((found - root) / math.ulp(float(root))):+.1f} ulps away"


def test_reference_flow_matches_the_closed_form():
    # The reference's matrix exponential against cos/sin of √det G·t, at the
    # largest |ΩG_c t| of the gate (g = 0.9999 at √Δ·t_c = 4π).
    params = ModelParams("QRM-frequency", g=0.9999)
    t_c = float(Protocol(*params.pair(), ALPHA).preparation_time(4.0 * math.pi))
    with mpmath.workdps(DPS):
        mp = mpmath.mp
        g_c, _ = _forms(params)
        m = mp.matrix([[0, 1], [-1, 0]]) * g_c
        root = mp.sqrt(mpmath.det(g_c))
        closed = mp.cos(root * t_c) * mp.eye(2) + mp.sin(root * t_c) / root * m
        gap = mp.mnorm(mp.expm(m * t_c) - closed, 1)
        assert gap <= mp.mpf(10) ** (-40)
