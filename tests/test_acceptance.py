"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the `canp validate` report.
"""

import json
import time
from pathlib import Path

from canp import validate as checks
from canp.experiments import load_config, run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _finish(criterion: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {criterion} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < limit, f"{criterion}: runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_algebraic_criterion():
    t0 = time.monotonic()
    result = checks.check_algebraic_criterion()
    _finish("criterion-1 algebraic-criterion", result.passed, time.monotonic() - t0, 1.0,
            json.dumps(result.measured))


def test_criterion_2_operator_constants():
    t0 = time.monotonic()
    result = checks.check_operator_constants()
    _finish("criterion-2 operator-constants", result.passed, time.monotonic() - t0, 1.0,
            json.dumps(result.measured))


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    moments, qfi = checks.check_oracle_agreement()
    detail = json.dumps({**moments.measured, **qfi.measured})
    _finish("criterion-3 oracle-equivalence", moments.passed and qfi.passed,
            time.monotonic() - t0, 120.0, detail)


def test_criterion_4_thresholds():
    t0 = time.monotonic()
    result = checks.check_thresholds()
    _finish("criterion-4 thresholds", result.passed, time.monotonic() - t0, 30.0,
            json.dumps(result.measured))


def test_criterion_5_scaling_laws():
    t0 = time.monotonic()
    short = checks.check_short_time_scaling()
    near = checks.check_near_critical_scaling()
    detail = json.dumps({**short.measured, **near.measured})
    _finish("criterion-5 scaling-laws", short.passed and near.passed,
            time.monotonic() - t0, 10.0, detail)


def test_criterion_6_skew_identity():
    t0 = time.monotonic()
    result = checks.check_skew_identity()
    _finish("criterion-6 skew-identity", result.passed, time.monotonic() - t0, 10.0,
            json.dumps(result.measured))


def test_criterion_7_homodyne_efficiency():
    t0 = time.monotonic()
    result = checks.check_homodyne_efficiency()
    _finish("criterion-7 homodyne-efficiency", result.passed, time.monotonic() - t0, 30.0,
            json.dumps(result.measured))


def test_criterion_8_structural_sanity():
    t0 = time.monotonic()
    result = checks.check_structural_sanity()
    _finish("criterion-8 structural-sanity", result.passed, time.monotonic() - t0, 5.0,
            json.dumps(result.measured))


def _rerun_byte_identical(name: str, tmp_path: Path) -> list[str]:
    """Run an experiment twice from its checked-in config; return CSV lines."""
    first = tmp_path / f"{name}_1.csv"
    second = tmp_path / f"{name}_2.csv"
    cfg_path = CONFIG_DIR / f"{name.replace('-', '_')}.json"
    run_experiment(load_config(str(cfg_path), {"out": str(first)}))
    run_experiment(load_config(str(cfg_path), {"out": str(second)}))
    b1, b2 = first.read_bytes(), second.read_bytes()
    assert b1 == b2, f"{name}: regenerated CSV differs between runs"
    return b1.decode("utf-8").splitlines()


def _local_maxima(values: list[float]) -> list[float]:
    return [
        values[i]
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    ]


def test_criterion_9_figure_regression(tmp_path):
    t0 = time.monotonic()
    fig2b_lines = None
    for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
        lines = _rerun_byte_identical(name, tmp_path)
        if name == "fig2b":
            fig2b_lines = lines

    # Oscillation peaks of each fig2b curve must decay with sqrt(Delta) t_c,
    # and the first peak must sit near pi on the period scale. R is
    # (t_theta/T)^2 K(t_c) with T = t_c + t_theta; K itself peaks at
    # 0.980pi-0.997pi, and the falling (t_theta/T)^2 envelope pulls the
    # ratio's maximum below it (0.81pi-0.84pi on the checked-in grid).
    curves: dict[float, list[tuple[float, float]]] = {}
    for line in fig2b_lines:
        if line.startswith("#") or line.startswith("g,"):
            continue
        g, sdtc, ratio = line.split(",")
        curves.setdefault(float(g), []).append((float(sdtc), float(ratio)))
    decaying = True
    peak_counts = {}
    for g, points in curves.items():
        ratios = [r for _, r in points]
        peaks = _local_maxima(ratios)
        peak_counts[g] = len(peaks)
        assert len(peaks) >= 2, f"g={g}: expected at least two oscillation peaks"
        if not all(b < a for a, b in zip(peaks, peaks[1:])):
            decaying = False
        first_peak_idx = next(
            i for i in range(1, len(ratios) - 1)
            if ratios[i] > ratios[i - 1] and ratios[i] > ratios[i + 1]
        )
        first_peak_at = points[first_peak_idx][0]
        assert abs(first_peak_at - 3.141592653589793) < 0.75, (
            f"g={g}: first peak at sqrtDelta_tc={first_peak_at}"
        )
    _finish("criterion-9 figure-regression", decaying, time.monotonic() - t0, 300.0,
            f"curves={sorted(curves)} peaks={peak_counts}")
