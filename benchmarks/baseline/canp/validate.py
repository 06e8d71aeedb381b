"""Cross-module regression checks aggregated by the `validate` experiment.

Each check pits one layer of the package against an independent route to the
same number: the symbolic algebra against published closed forms, the
Gaussian engine against the truncated number-basis oracle, the
generator-variance Fisher information against the fidelity-based numeric
one, and the resource-constrained thresholds and scalings against their
reported values. A failed oracle convergence is reported as a failed check,
never as a crash.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import fock
from .errors import TruncationNotConvergedError
from .gaussian import coherent, evolve, evolution_map, mean_photon, variance_quadratic, OMEGA
from .metrology import (
    ProtocolSpec,
    enhancement_ratio,
    find_threshold,
    qfi_asymptotic,
    qfi_exact,
    skew_information,
    cfi_homodyne,
)
from .models import (
    ModelParams,
    lmg_commutator_d,
    qrm_commutator_c,
    qrm_commutator_d,
)
from .operators import derive_critical_structure

ALPHA = 0.3 + 1.0j
T_THETA = 12.0

# 20-point oracle grid: pairs (g, fraction of the full commutator period
# 2π/√Δ). The grid spans g ∈ [0.5, 0.99] and fractions up to 0.9 of the
# period. The g = 0.99 row stays below the maximal-squeezing midpoint
# (fraction 0.5): a trajectory crossing it transiently occupies ~10³ number
# levels, beyond the truncation cap, even when its endpoint is compact.
ORACLE_GRID = (
    (0.50, 0.00), (0.50, 0.25), (0.50, 0.50), (0.50, 0.75),
    (0.70, 0.05), (0.70, 0.30), (0.70, 0.55), (0.70, 0.80),
    (0.90, 0.10), (0.90, 0.35), (0.90, 0.60), (0.90, 0.85),
    (0.96, 0.15), (0.96, 0.40), (0.96, 0.65), (0.96, 0.90),
    (0.99, 0.00), (0.99, 0.05), (0.99, 0.125), (0.99, 0.20),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)
    details: str = ""
    seconds: float = 0.0


def _agree(a: float, b: float, tol: float) -> bool:
    """|a − b| within tol absolutely, or relatively for large magnitudes."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_algebraic_criterion() -> CheckResult:
    """Closure residual and extracted gap for all three shipped pairs."""
    t0 = time.monotonic()
    worst_residual = 0.0
    worst_delta_err = 0.0
    rng = np.random.default_rng(20240901)
    for _ in range(100):
        omega = 0.5 + 1.5 * rng.random()
        g = 0.01 + 0.98 * rng.random()
        lam = 0.01 + 0.98 * rng.random()
        gamma = 1.05 + 1.95 * rng.random()
        for params in (
            ModelParams("QRM-frequency", omega=omega, g=g),
            ModelParams("QRM-displacement", omega=omega, g=g),
            ModelParams("LMG-frequency", lam=lam, gamma=gamma),
        ):
            cs = derive_critical_structure(*params.pair())
            worst_residual = max(worst_residual, cs.residual)
            worst_delta_err = max(worst_delta_err, abs(cs.Delta - params.published_delta()))
    return CheckResult(
        name="algebraic_criterion",
        passed=worst_residual < 1e-10 and worst_delta_err <= 1e-12,
        measured={"max_residual": worst_residual, "max_delta_error": worst_delta_err},
        tolerance={"residual": 1e-10, "delta_error": 1e-12},
        details="100 random draws per family (QRM-frequency, QRM-displacement, LMG)",
        seconds=time.monotonic() - t0,
    )


def check_operator_constants() -> CheckResult:
    """Derived C and D against the printed closed forms."""
    t0 = time.monotonic()
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(20240902)
    for _ in range(100):
        omega = 0.5 + 1.5 * rng.random()
        g = 0.01 + 0.98 * rng.random()
        lam = 0.01 + 0.98 * rng.random()
        gamma = 1.05 + 1.95 * rng.random()

        qrm = ModelParams("QRM-frequency", omega=omega, g=g)
        cs = derive_critical_structure(*qrm.pair())
        for got, want in (
            (cs.C, qrm_commutator_c(omega, g)),
            (cs.D, qrm_commutator_d(omega, g)),
        ):
            diff = max(abs(x - y) for x, y in zip(got.coeffs(), want.coeffs()))
            worst = max(worst, diff / max(1.0, want.max_abs()))

        lmg = ModelParams("LMG-frequency", lam=lam, gamma=gamma)
        cs_l = derive_critical_structure(*lmg.pair())
        want_d = lmg_commutator_d(lam, gamma)
        diff = max(abs(x - y) for x, y in zip(cs_l.D.coeffs(), want_d.coeffs()))
        worst = max(worst, diff / max(1.0, want_d.max_abs()))
    return CheckResult(
        name="operator_constants",
        passed=worst <= tol,
        measured={"max_coefficient_mismatch": worst},
        tolerance={"coefficientwise": tol},
        details="QRM C and D plus LMG D, coefficientwise over 100 draws",
        seconds=time.monotonic() - t0,
    )


def _oracle_point(point: tuple[float, float]) -> dict:
    """One grid point of the Gaussian-vs-number-basis comparison."""
    g, frac = point
    params = ModelParams("QRM-frequency", g=g)
    delta = params.published_delta()
    t_c = frac * 2.0 * math.pi / math.sqrt(delta)
    spec = ProtocolSpec(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=t_c, t_theta=T_THETA, alpha=ALPHA, theta0=0.1,
    )
    state = evolve(coherent(ALPHA), spec.Hc, t_c)
    state = evolve(state, spec.Htheta, spec.theta0 * spec.t_theta)
    psi = fock.converged_protocol_state(spec, spec.theta0)
    mu_f, sigma_f = fock.fock_moments(psi)
    d_op = qrm_commutator_d(1.0, g)
    return {
        "g": g,
        "frac": frac,
        "dim": psi.dim,
        "mu_diff": float(np.max(np.abs(state.mu - mu_f))),
        "sigma_diff": float(np.max(np.abs(state.sigma - sigma_f))),
        "nbar_gauss": mean_photon(state),
        "nbar_fock": fock.mean_photon_fock(psi),
        "var_gauss": variance_quadratic(state, d_op),
        "var_fock": fock.variance_fock(psi, d_op),
        "qfi_exact": qfi_exact(spec),
        "qfi_numeric": fock.qfi_numeric(spec),
    }


def check_oracle_agreement(parallelism: int = 1) -> tuple[CheckResult, CheckResult]:
    """Gaussian moments and exact QFI against the number-basis oracle."""
    t0 = time.monotonic()
    try:
        if parallelism > 1:
            with ProcessPoolExecutor(max_workers=min(4, parallelism)) as pool:
                results = list(pool.map(_oracle_point, ORACLE_GRID))
        else:
            results = [_oracle_point(p) for p in ORACLE_GRID]
    except TruncationNotConvergedError as exc:
        elapsed = time.monotonic() - t0
        failed = CheckResult(
            name="gaussian_fock_moments", passed=False,
            details=f"oracle did not converge: {exc}", seconds=elapsed,
        )
        failed_q = CheckResult(
            name="qfi_three_way", passed=False,
            details=f"oracle did not converge: {exc}", seconds=0.0,
        )
        return failed, failed_q

    mom_tol, qfi_tol = 1e-6, 1e-4
    worst_mu = max(r["mu_diff"] for r in results)
    worst_sigma = max(r["sigma_diff"] for r in results)
    worst_nbar = max(
        abs(r["nbar_gauss"] - r["nbar_fock"]) / max(1.0, abs(r["nbar_fock"]))
        for r in results
    )
    worst_var = max(
        abs(r["var_gauss"] - r["var_fock"]) / max(1.0, abs(r["var_fock"]))
        for r in results
    )
    moments_ok = all(
        _agree(r["nbar_gauss"], r["nbar_fock"], mom_tol)
        and _agree(r["var_gauss"], r["var_fock"], mom_tol)
        and r["mu_diff"] <= mom_tol * max(1.0, abs(r["nbar_fock"]))
        and r["sigma_diff"] <= mom_tol * max(1.0, r["var_fock"], abs(r["nbar_fock"]))
        for r in results
    )
    elapsed = time.monotonic() - t0
    moments = CheckResult(
        name="gaussian_fock_moments",
        passed=moments_ok,
        measured={
            "max_mu_diff": worst_mu,
            "max_sigma_diff": worst_sigma,
            "max_nbar_rel": worst_nbar,
            "max_varD_rel": worst_var,
            "max_dim": max(r["dim"] for r in results),
        },
        tolerance={"moments": mom_tol},
        details="20-point grid g in [0.5, 0.99], t_c in [0, 2pi/sqrt(Delta))",
        seconds=elapsed,
    )
    worst_qfi = max(
        abs(r["qfi_exact"] - r["qfi_numeric"]) / abs(r["qfi_numeric"]) for r in results
    )
    qfi = CheckResult(
        name="qfi_three_way",
        passed=worst_qfi <= qfi_tol,
        measured={"max_qfi_rel_gap": worst_qfi},
        tolerance={"relative": qfi_tol},
        details="generator-variance QFI vs fidelity-based numeric QFI on the same grid",
        seconds=0.0,
    )
    return moments, qfi


def check_thresholds() -> CheckResult:
    t0 = time.monotonic()
    g_star = find_threshold("QRM-frequency", 12.0, ALPHA, (0.3, 0.8))
    lam_star = find_threshold("LMG-frequency", 1.3, ALPHA, (0.2, 0.6), gamma=2.0)
    ok = abs(g_star - 0.5058) <= 0.005 and abs(lam_star - 0.3559) <= 0.005
    return CheckResult(
        name="thresholds",
        passed=ok,
        measured={
            "g_star": g_star, "g_star_bracket": [0.3, 0.8],
            "lambda_star": lam_star, "lambda_star_bracket": [0.2, 0.6],
        },
        tolerance={"g_star": [0.5058, 0.005], "lambda_star": [0.3559, 0.005]},
        details="enhancement-ratio unity crossings at preparation time pi/sqrt(Delta)",
        seconds=time.monotonic() - t0,
    )


def check_short_time_scaling() -> CheckResult:
    """Log-log slope of the asymptotic QFI versus t_c in the short-time window."""
    t0 = time.monotonic()
    params = ModelParams("QRM-frequency", g=0.96)
    t_grid = np.logspace(-3, -2, 20)
    values = [
        qfi_asymptotic(ProtocolSpec(
            Hc=params.preparation(), Htheta=params.encoding(),
            t_c=float(t), t_theta=T_THETA, alpha=ALPHA,
        ))
        for t in t_grid
    ]
    slope = float(np.polyfit(np.log(t_grid), np.log(values), 1)[0])
    return CheckResult(
        name="short_time_scaling",
        passed=abs(slope - 4.0) <= 0.05,
        measured={"slope": slope},
        tolerance={"slope": [4.0, 0.05]},
        details="t_c in [1e-3, 1e-2] at g=0.96",
        seconds=time.monotonic() - t0,
    )


def check_near_critical_scaling() -> CheckResult:
    """Exact QFI approaches 16 Δ⁻² t_θ² Var[D] at preparation time π/√Δ.

    The cross terms of the generator decay like Δ, so the deviation must
    fall monotonically as g → 1, be within 0.10 across g ≥ 0.98 and within
    0.05 at the top of the tested range.
    """
    t0 = time.monotonic()
    deviations = {}
    for g in (0.98, 0.985, 0.99, 0.995):
        params = ModelParams("QRM-frequency", g=g)
        spec = ProtocolSpec(
            Hc=params.preparation(), Htheta=params.encoding(),
            t_c=params.critical_time(), t_theta=T_THETA, alpha=ALPHA,
        )
        deviations[g] = abs(qfi_exact(spec) / qfi_asymptotic(spec) - 1.0)
    devs = list(deviations.values())
    ok = (
        all(b < a for a, b in zip(devs, devs[1:]))
        and devs[-1] <= 0.05
        and max(devs) <= 0.10
    )
    return CheckResult(
        name="near_critical_scaling",
        passed=ok,
        measured={f"deviation_g={g}": d for g, d in deviations.items()},
        tolerance={"monotone_decreasing": True, "final": 0.05, "everywhere": 0.10},
        details="qfi_exact/(16 Delta^-2 t_theta^2 Var[D]) - 1 at t_c=pi/sqrt(Delta)",
        seconds=time.monotonic() - t0,
    )


def check_skew_identity() -> CheckResult:
    t0 = time.monotonic()
    worst_rel = 0.0
    argmax_match = True
    sdtc_grid = np.linspace(0.0, 4.0 * math.pi, 160)
    for g in (0.90, 0.95, 0.98):
        params = ModelParams("QRM-frequency", g=g)
        delta = params.published_delta()
        skews, qfis = [], []
        for sdtc in sdtc_grid:
            spec = ProtocolSpec(
                Hc=params.preparation(), Htheta=params.encoding(),
                t_c=float(sdtc) / math.sqrt(delta), t_theta=T_THETA, alpha=ALPHA,
            )
            s = skew_information(spec)
            f = qfi_exact(spec)
            skews.append(s)
            qfis.append(f)
            worst_rel = max(worst_rel, abs(4.0 * T_THETA**2 * s - f) / f)
        if int(np.argmax(skews)) != int(np.argmax(qfis)):
            argmax_match = False
    return CheckResult(
        name="skew_identity",
        passed=worst_rel <= 1e-9 and argmax_match,
        measured={"max_identity_rel": worst_rel, "argmax_match": argmax_match},
        tolerance={"identity_rel": 1e-9},
        details="4 t_theta^2 S = F and shared maxima over t_c for g in {0.90, 0.95, 0.98}",
        seconds=time.monotonic() - t0,
    )


def check_homodyne_efficiency() -> CheckResult:
    t0 = time.monotonic()
    ratios = {}
    bounded = True
    for g in np.linspace(0.90, 0.98, 9):
        params = ModelParams("QRM-frequency", g=float(g))
        spec = ProtocolSpec(
            Hc=params.preparation(), Htheta=params.encoding(),
            t_c=params.critical_time(), t_theta=T_THETA, alpha=ALPHA,
        )
        cfi = cfi_homodyne(spec)
        qfi = qfi_exact(spec)
        ratios[round(float(g), 4)] = cfi / qfi
        if cfi > qfi * (1.0 + 1e-6):
            bounded = False
    ok = bounded and all(0.8 <= r <= 1.0 for r in ratios.values())
    return CheckResult(
        name="homodyne_efficiency",
        passed=ok,
        measured={"min_ratio": min(ratios.values()), "max_ratio": max(ratios.values())},
        tolerance={"ratio_window": [0.8, 1.0]},
        details="cfi/qfi at t_c=pi/sqrt(Delta), theta=0, g in [0.90, 0.98]",
        seconds=time.monotonic() - t0,
    )


def check_structural_sanity() -> CheckResult:
    t0 = time.monotonic()
    measured: dict = {}
    ok = True

    # Commuting preparation wastes time: R = t_theta^2 / T^2 exactly.
    params0 = ModelParams("QRM-frequency", g=0.0)
    spec0 = ProtocolSpec(
        Hc=params0.preparation(), Htheta=params0.encoding(),
        t_c=3.0, t_theta=T_THETA, alpha=ALPHA,
    )
    r0 = enhancement_ratio(spec0)
    expected = T_THETA**2 / (3.0 + T_THETA) ** 2
    measured["g0_ratio_error"] = abs(r0 - expected) / expected
    ok &= measured["g0_ratio_error"] <= 1e-12 and r0 < 1.0

    # No preparation: plain t_theta^2 |alpha|^2 Fisher information.
    params = ModelParams("QRM-frequency", g=0.96)
    spec_tc0 = ProtocolSpec(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=0.0, t_theta=T_THETA, alpha=ALPHA,
    )
    f_tc0 = qfi_exact(spec_tc0)
    expected_f = 4.0 * T_THETA**2 * abs(ALPHA) ** 2
    measured["tc0_qfi_error"] = abs(f_tc0 - expected_f) / expected_f
    ok &= measured["tc0_qfi_error"] <= 1e-12

    # Frequency-case quantities do not depend on the working point.
    spec_a = ProtocolSpec(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=2.5, t_theta=T_THETA, alpha=ALPHA, theta0=0.0,
    )
    spec_b = ProtocolSpec(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=2.5, t_theta=T_THETA, alpha=ALPHA, theta0=0.37,
    )
    measured["theta_invariance_qfi"] = abs(qfi_exact(spec_a) - qfi_exact(spec_b)) / qfi_exact(spec_a)
    measured["theta_invariance_ratio"] = abs(
        enhancement_ratio(spec_a) - enhancement_ratio(spec_b)
    ) / enhancement_ratio(spec_a)
    ok &= measured["theta_invariance_qfi"] <= 1e-10
    ok &= measured["theta_invariance_ratio"] <= 1e-10

    # Symplectic and uncertainty invariants along evolved trajectories.
    worst_symp = 0.0
    worst_unc = 0.0
    worst_purity = 0.0
    for g in (0.5, 0.9, 0.99):
        h = ModelParams("QRM-frequency", g=g).preparation()
        for t in np.linspace(0.0, 8.0, 9):
            s_mat, _ = evolution_map(h, float(t))
            worst_symp = max(worst_symp, float(np.max(np.abs(s_mat @ OMEGA @ s_mat.T - OMEGA))))
            state = evolve(coherent(ALPHA), h, float(t))
            worst_unc = max(worst_unc, state.uncertainty_defect())
            worst_purity = max(worst_purity, state.purity_defect())
    measured["max_symplectic_defect"] = worst_symp
    measured["max_uncertainty_defect"] = worst_unc
    measured["max_purity_defect"] = worst_purity
    ok &= worst_symp <= 1e-12 and worst_unc <= 1e-12 and worst_purity <= 1e-10

    return CheckResult(
        name="structural_sanity",
        passed=bool(ok),
        measured=measured,
        tolerance={
            "g0_ratio": 1e-12, "tc0_qfi": 1e-12, "theta_invariance": 1e-10,
            "symplectic": 1e-12, "uncertainty": 1e-12, "purity": 1e-10,
        },
        seconds=time.monotonic() - t0,
    )


def run_checks(parallelism: int = 1) -> dict:
    """Run every check and bundle the outcome as a JSON-ready report."""
    results: list[CheckResult] = [
        check_algebraic_criterion(),
        check_operator_constants(),
    ]
    results.extend(check_oracle_agreement(parallelism))
    results.extend(
        (
            check_thresholds(),
            check_short_time_scaling(),
            check_near_critical_scaling(),
            check_skew_identity(),
            check_homodyne_efficiency(),
            check_structural_sanity(),
        )
    )
    return {
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
