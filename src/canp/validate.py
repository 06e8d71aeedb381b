"""Cross-module regression checks aggregated by the `validate` experiment.

Each check pits one layer of the package against an independent route to the
same number: the symbolic algebra against published closed forms, the
Gaussian engine against the truncated number-basis oracle, the
generator-variance Fisher information against the oracle's fidelity
susceptibility 4 t_θ² Var[H_θ] (the exact small-step limit of the fidelity),
and the resource-constrained thresholds and scalings against their reported
values. A failed oracle convergence is reported as a failed check, never as
a crash.
"""

from __future__ import annotations

import math
import random
import time
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import fock
from .errors import TruncationNotConvergedError
from .gaussian import Flow, coherent, photon_number, quadratic_variance
from .metrology import Protocol, find_threshold, sweep
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
# 2π/√Δ), evaluated one g (one row of four) at a time. The grid spans
# g ∈ [0.5, 0.99] and fractions up to 0.9 of the period. The g = 0.99 row
# stays below the maximal-squeezing midpoint (fraction 0.5) because
# (0.99, 0.5) converges only at 960 levels, above fock.MAX_DIM. Each point's
# truncation holds its whole path: the tail check also runs at 15 interior
# times of each evolution.
ORACLE_GRID = (
    (0.50, 0.00), (0.50, 0.25), (0.50, 0.50), (0.50, 0.75),
    (0.70, 0.05), (0.70, 0.30), (0.70, 0.55), (0.70, 0.80),
    (0.90, 0.10), (0.90, 0.35), (0.90, 0.60), (0.90, 0.85),
    (0.96, 0.15), (0.96, 0.40), (0.96, 0.65), (0.96, 0.90),
    (0.99, 0.00), (0.99, 0.05), (0.99, 0.125), (0.99, 0.20),
)


class CheckResult(NamedTuple):
    """One check's outcome; the report times it after it is built."""
    name: str
    passed: bool
    measured: dict
    tolerance: dict
    details: str = ""
    seconds: float = 0.0


def _protocol(params: ModelParams) -> Protocol:
    """The protocol of a model value with the validation probe."""
    return Protocol(params.preparation(), params.encoding(), ALPHA)


def _draws(seed: int) -> np.ndarray:
    """100 seeded draws of (ω, g, λ, γ) in both families' normal phases, one row each."""
    rng = random.Random(seed)
    return np.array([(0.5 + 1.5 * rng.random(), 0.01 + 0.98 * rng.random(),
                      0.01 + 0.98 * rng.random(), 1.05 + 1.95 * rng.random()) for _ in range(100)])


def check_algebraic_criterion() -> CheckResult:
    """Closure residual and extracted gap for all three shipped pairs, one stack per family."""
    omega, g, lam, gamma = _draws(20240901).T
    worst_residual = 0.0
    worst_delta_err = 0.0
    for params in (
        ModelParams("QRM-frequency", omega=omega, g=g),
        ModelParams("QRM-displacement", omega=omega, g=g),
        ModelParams("LMG-frequency", lam=lam, gamma=gamma),
    ):
        cs = derive_critical_structure(*params.pair())
        worst_residual = max(worst_residual, float(np.max(cs.residual)))
        worst_delta_err = max(worst_delta_err,
                              float(np.max(np.abs(cs.Delta - params.published_delta()))))
    tolerance = {"residual": 1e-10, "delta_error": 1e-12}
    return CheckResult(
        name="algebraic_criterion",
        passed=(worst_residual < tolerance["residual"]
                and worst_delta_err <= tolerance["delta_error"]),
        measured={"max_residual": worst_residual, "max_delta_error": worst_delta_err},
        tolerance=tolerance,
        details="100 random draws per family (QRM-frequency, QRM-displacement, LMG)",
    )


def check_operator_constants() -> CheckResult:
    """Derived C and D against the printed closed forms, entrywise in (G, v, c0)."""
    tol = 1e-12
    omega, g, lam, gamma = _draws(20240902).T
    qrm = derive_critical_structure(*ModelParams("QRM-frequency", omega=omega, g=g).pair())
    lmg = derive_critical_structure(*ModelParams("LMG-frequency", lam=lam, gamma=gamma).pair())
    worst = 0.0
    for got, want in (
        (qrm.C, qrm_commutator_c(omega, g)),
        (qrm.D, qrm_commutator_d(omega, g)),
        (lmg.D, lmg_commutator_d(lam, gamma)),
    ):
        diff = reduce(np.maximum, (abs(x - y) for x, y in zip(got, want)))
        worst = max(worst, float(np.max(diff / reduce(np.maximum, map(abs, want), 1.0))))
    return CheckResult(
        name="operator_constants",
        passed=worst <= tol,
        measured={"max_coefficient_mismatch": worst},
        tolerance={"coefficientwise": tol},
        details="QRM C and D plus LMG D, coefficientwise over 100 draws",
    )


def _oracle_row(g: float, fractions: list[float]) -> tuple[list[dict], float]:
    """Gaussian vs number basis at each fraction of one g: one Protocol, one escalation.

    Each moment error is relative to the oracle's own scale: the means to
    max(1, n̄), the covariance to max(1, n̄, Var D), n̄ and Var D to themselves.
    The numeric QFI is 4 t_θ² Var[H_θ] in the converged prepared state.
    Returns the points and the seconds spent on their QFIs.
    """
    protocol = _protocol(ModelParams("QRM-frequency", g=g))
    t_c = protocol.preparation_time(2.0 * math.pi * np.array(fractions))
    oracle = fock.converged_states(protocol.hc, protocol.htheta, ALPHA, t_c, 0.1 * T_THETA)
    t_qfi = time.monotonic()
    qfi_exact = protocol.qfi(t_c, T_THETA)
    qfi_numeric = [4.0 * (T_THETA * T_THETA) * fock.variance_fock(prepared, protocol.htheta)
                   for _, prepared, _ in oracle]
    qfi_seconds = time.monotonic() - t_qfi
    state = protocol.state(t_c, T_THETA, 0.1)
    nbar_g, var_g = photon_number(state), quadratic_variance(protocol.structure.D, state)
    points = []
    for i, (dim, _, psi) in enumerate(oracle):
        mu_f, sigma_f = fock.fock_moments(psi)
        nbar, var = fock.mean_photon_fock(psi), fock.variance_fock(psi, protocol.structure.D)
        points.append({
            "dim": dim,
            "mu_rel": float(np.max(np.abs(state.mu[:, i] - mu_f))) / max(1.0, nbar),
            "sigma_rel": float(np.max(np.abs(state.sigma[..., i] - sigma_f))) / max(1.0, var, nbar),
            "nbar_rel": abs(float(nbar_g[i]) - nbar) / max(1.0, nbar),
            "varD_rel": abs(float(var_g[i]) - var) / max(1.0, var),
            "qfi_exact": float(qfi_exact[i]),
            "qfi_numeric": qfi_numeric[i],
        })
    return points, qfi_seconds


def check_oracle_agreement() -> tuple[CheckResult, CheckResult]:
    """Gaussian moments and exact QFI against the number-basis oracle.

    Both checks share one in-process pass over the grid, one row (one g) at
    a time. The QFI comparison reports the time the rows spent on QFIs, and
    the moment comparison the rest of the pass.
    """
    t0 = time.monotonic()
    results, qfi_seconds = [], 0.0
    for g in dict.fromkeys(g for g, _ in ORACLE_GRID):
        fractions = [frac for h, frac in ORACLE_GRID if h == g]
        try:
            points, seconds = _oracle_row(g, fractions)
        except TruncationNotConvergedError as exc:
            failed = ", ".join(f"({g}, {fractions[i]})" for i in exc.pending)
            details = f"oracle did not converge at (g, fraction) {failed}: {exc}"
            return (CheckResult("gaussian_fock_moments", False, {}, {}, details,
                                time.monotonic() - t0 - qfi_seconds),
                    CheckResult("qfi_three_way", False, {}, {}, details, qfi_seconds))
        results += points
        qfi_seconds += seconds

    mom_tol, qfi_tol = 1e-6, 1e-6
    worst = {f"max_{key}": max(r[key] for r in results)
             for key in ("mu_rel", "sigma_rel", "nbar_rel", "varD_rel")}
    moments = CheckResult(
        name="gaussian_fock_moments",
        passed=all(value <= mom_tol for value in worst.values()),
        measured={**worst, "max_dim": max(r["dim"] for r in results)},
        tolerance={"moments": mom_tol},
        details="20-point grid g in [0.5, 0.99], t_c in [0, 2pi/sqrt(Delta))",
        seconds=time.monotonic() - t0 - qfi_seconds,
    )
    worst_qfi = max(
        abs(r["qfi_exact"] - r["qfi_numeric"]) / abs(r["qfi_numeric"]) for r in results
    )
    qfi = CheckResult(
        name="qfi_three_way",
        passed=worst_qfi <= qfi_tol,
        measured={"max_qfi_rel_gap": worst_qfi},
        tolerance={"relative": qfi_tol},
        details="generator-variance QFI vs number-basis fidelity-susceptibility QFI",
        seconds=qfi_seconds,
    )
    return moments, qfi


def check_thresholds() -> CheckResult:
    g_bracket, lam_bracket = (0.3, 0.8), (0.2, 0.6)
    g_star = find_threshold("QRM-frequency", 12.0, ALPHA, g_bracket)
    lam_star = find_threshold("LMG-frequency", 1.3, ALPHA, lam_bracket, gamma=2.0)
    tolerance = {"g_star": [0.5058, 5e-5], "lambda_star": [0.3559, 5e-5]}
    found = {"g_star": g_star, "lambda_star": lam_star}
    return CheckResult(
        name="thresholds",
        passed=all(abs(found[key] - want) <= tol for key, (want, tol) in tolerance.items()),
        measured={
            "g_star": g_star, "g_star_bracket": list(g_bracket),
            "lambda_star": lam_star, "lambda_star_bracket": list(lam_bracket),
        },
        tolerance=tolerance,
        details="enhancement-ratio unity crossings at preparation time pi/sqrt(Delta)",
    )


def check_short_time_scaling() -> CheckResult:
    """Log-log slope of the asymptotic QFI versus t_c in the short-time window."""
    t_grid = np.logspace(-3, -2, 20)
    values = _protocol(ModelParams("QRM-frequency", g=0.96)).qfi_asymptotic(t_grid, T_THETA)
    slope = float(np.polyfit(np.log(t_grid), np.log(values), 1)[0])
    tolerance = {"slope": [4.0, 0.05]}
    want, tol = tolerance["slope"]
    return CheckResult(
        name="short_time_scaling",
        passed=abs(slope - want) <= tol,
        measured={"slope": slope},
        tolerance=tolerance,
        details="t_c in [1e-3, 1e-2] at g=0.96",
    )


def check_near_critical_scaling() -> CheckResult:
    """Exact QFI approaches 16 Δ⁻² t_θ² Var[D] at preparation time π/√Δ.

    The cross terms of the generator decay like Δ, so the deviation must
    fall monotonically as g → 1, be within 0.10 across g ≥ 0.98 and within
    0.05 at the top, and match its exact law Δ(ΔΣ_θθ − 4Σ_θD)/(4Σ_DD) to law_rel.
    """
    def columns(p, t_c):
        (s_tt, _, s_td, _, _, s_dd), delta = p.covariance, p.structure.Delta
        return {"ratio": p.qfi(t_c, T_THETA) / p.qfi_asymptotic(t_c, T_THETA),
                "law": delta * (delta * s_tt - 4.0 * s_td) / (4.0 * s_dd)}
    g_values = (0.98, 0.985, 0.99, 0.995)
    swept = sweep(ModelParams("QRM-frequency", g=np.array(g_values)), ALPHA, math.pi, columns)
    devs = np.abs(swept["ratio"] - 1.0).tolist()
    law_rel = float(np.max(np.abs((swept["ratio"] - 1.0) / swept["law"] - 1.0)))
    tolerance = {"monotone_decreasing": True, "final": 0.05, "everywhere": 0.10, "law_rel": 1e-12}
    ok = (
        all(b < a for a, b in zip(devs, devs[1:]))
        and devs[-1] <= tolerance["final"]
        and max(devs) <= tolerance["everywhere"]
        and law_rel <= tolerance["law_rel"]
    )
    return CheckResult(
        name="near_critical_scaling",
        passed=ok,
        measured={f"deviation_g={g}": d for g, d in zip(g_values, devs)} | {"max_law_rel": law_rel},
        tolerance=tolerance,
        details="qfi_exact/(16 Delta^-2 t_theta^2 Var[D]) - 1 at t_c=pi/sqrt(Delta)",
    )


def check_skew_identity() -> CheckResult:
    sdtc_grid = np.linspace(0.0, 4.0 * math.pi, 160)
    swept = sweep(ModelParams("QRM-frequency", g=np.array([0.90, 0.95, 0.98])), ALPHA,
                  sdtc_grid, lambda p, t_c: {"skew": p.skew(t_c), "qfi": p.qfi(t_c, T_THETA)})
    skews, qfis = swept["skew"], swept["qfi"]  # one row per g
    worst_rel = float(np.max(np.abs(4.0 * (T_THETA * T_THETA) * skews - qfis) / qfis))
    argmax_match = bool(np.array_equal(np.argmax(skews, axis=1), np.argmax(qfis, axis=1)))
    tolerance = {"identity_rel": 1e-9}
    return CheckResult(
        name="skew_identity",
        passed=worst_rel <= tolerance["identity_rel"] and argmax_match,
        measured={"max_identity_rel": worst_rel, "argmax_match": argmax_match},
        tolerance=tolerance,
        details="4 t_theta^2 S = F and shared maxima over t_c for g in {0.90, 0.95, 0.98}",
    )


def check_homodyne_efficiency() -> CheckResult:
    """cfi/qfi within [0.8, 1] at the critical time. The window's top is the
    bound cfi ≤ qfi: the homodyne CFI, a sum of squares over Var P > 0, is
    never negative."""
    model = ModelParams("QRM-frequency", g=np.linspace(0.90, 0.98, 9))
    swept = sweep(model, ALPHA, math.pi, lambda p, t_c: {
        "cfi": p.cfi_homodyne(t_c, T_THETA, 0.0), "qfi": p.qfi(t_c, T_THETA)})
    ratios = (swept["cfi"] / swept["qfi"]).tolist()
    tolerance = {"ratio_window": [0.8, 1.0]}
    lo, hi = tolerance["ratio_window"]
    return CheckResult(
        name="homodyne_efficiency",
        passed=all(lo <= r <= hi for r in ratios),
        measured={"min_ratio": min(ratios), "max_ratio": max(ratios)},
        tolerance=tolerance,
        details="cfi/qfi at t_c=pi/sqrt(Delta), theta=0, g in [0.90, 0.98]",
    )


def check_structural_sanity() -> CheckResult:
    measured: dict = {}
    ok = True
    tolerance = {
        "g0_ratio": 1e-12, "tc0_qfi": 1e-12, "theta_invariance": 1e-10,
        "symplectic": 1e-12, "uncertainty": 1e-12, "purity": 1e-10,
    }

    # Commuting preparation wastes time: R = t_theta^2 / T^2 exactly.
    r0 = float(_protocol(ModelParams("QRM-frequency", g=0.0)).ratio(3.0, T_THETA, 0.0))
    expected = (T_THETA * T_THETA) / ((3.0 + T_THETA) * (3.0 + T_THETA))
    measured["g0_ratio_error"] = abs(r0 - expected) / expected
    ok &= measured["g0_ratio_error"] <= tolerance["g0_ratio"] and r0 < 1.0

    # No preparation: plain t_theta^2 |alpha|^2 Fisher information.
    protocol = _protocol(ModelParams("QRM-frequency", g=0.96))
    f_tc0 = float(protocol.qfi(0.0, T_THETA))
    expected_f = 4.0 * (T_THETA * T_THETA) * (abs(ALPHA) * abs(ALPHA))
    measured["tc0_qfi_error"] = abs(f_tc0 - expected_f) / expected_f
    ok &= measured["tc0_qfi_error"] <= tolerance["tc0_qfi"]

    # Frequency encoding conserves the photon number, so the ratio does not
    # depend on the working point.
    r_a, r_b = (float(protocol.ratio(2.5, T_THETA, theta0)) for theta0 in (0.0, 0.37))
    measured["theta_invariance_ratio"] = abs(r_a - r_b) / r_a
    ok &= measured["theta_invariance_ratio"] <= tolerance["theta_invariance"]

    # Symplectic and uncertainty invariants along evolved trajectories. For
    # a 2×2 S, S Ω Sᵀ = det(S)·Ω, so the symplectic defect is |det S − 1|.
    worst_symp = worst_unc = worst_purity = 0.0
    t = np.linspace(0.0, 8.0, 9)
    for g in (0.5, 0.9, 0.99):
        flow = Flow(ModelParams("QRM-frequency", g=g).preparation())
        (s00, s01, s10, s11), _ = flow.map(t)
        state = flow.apply(coherent(ALPHA), t)
        worst_symp = max(worst_symp, float(np.max(np.abs(s00 * s11 - s01 * s10 - 1.0))))
        worst_unc = max(worst_unc, float(np.max(state.uncertainty_defect())))
        worst_purity = max(worst_purity, float(np.max(state.purity_defect())))
    measured["max_symplectic_defect"] = worst_symp
    measured["max_uncertainty_defect"] = worst_unc
    measured["max_purity_defect"] = worst_purity
    ok &= (worst_symp <= tolerance["symplectic"] and worst_unc <= tolerance["uncertainty"]
           and worst_purity <= tolerance["purity"])

    return CheckResult(
        name="structural_sanity",
        passed=bool(ok),
        measured=measured,
        tolerance=tolerance,
    )


def _timed(check) -> CheckResult:
    t0 = time.monotonic()
    result = check()
    return result._replace(seconds=time.monotonic() - t0)


def run_checks() -> dict:
    """Run every check, in this process, and bundle the outcome as a JSON-ready report.

    The single-result checks are timed here (one called directly reports
    0.0 s); the two oracle checks split the time of their shared pass by
    difference (:func:`check_oracle_agreement`).
    """
    # Named in this body, not in a module-level tuple, so that a check
    # rebound on the module after import is the one that runs.
    results = [
        *map(_timed, (check_algebraic_criterion, check_operator_constants)),
        *check_oracle_agreement(),
        *map(_timed, (check_thresholds, check_short_time_scaling, check_near_critical_scaling,
                      check_skew_identity, check_homodyne_efficiency, check_structural_sanity)),
    ]
    return {
        "passed": all(r.passed for r in results),
        "checks": [r._asdict() for r in results],
    }
