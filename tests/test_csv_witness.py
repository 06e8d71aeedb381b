"""The checked-in sweep configs' CSVs, as written, against the 50-digit reference.

Each config runs in-process through `cli.main`, and its CSV text is parsed
back. A sampled row is checked against `reference` (tests/test_exact_reference.py)
at the phase the row writes: y is its sqrtDelta_tc cell, or the experiment's
fixed phase (π, or π/2 for displacement), and t_c = y/√Δ with Δ from
`reference_delta`, all in 50 digits. The row's model value (g or λ) is read
from its own cell, so the reference shares only the config's parameters and
the written text with canp's route.

Columns: R (fig2a, fig2b); F, and the skew S as F/(4t_θ²) (fig3a); R_tau
(fig2b-inset, lmg-threshold); qfi, and meanP and cfi from
`reference_homodyne` (fig3b); qfi_exact, R, delta_p as the reference Δ, and
qfi_formula as 4t_θ²·sin²y/Δ·Var[C] with C = i[H_c, H_θ] built from the
reference's own forms (displacement). Rows: all of fig2b-inset,
lmg-threshold, fig3b and displacement; every 7th of fig2b and fig3a, plus
each model value's rows nearest √Δ·t_c = 2π and 4π; every 97th fig2a cell.
The gate is the flat 1e-14 relative bound of the exact-reference test; ⟨P⟩
crosses zero, so its error is relative to at least √Var P. lmg-threshold's
`lambda_star` comment is held, like validate's λ*, to 128 ulps of the
50-digit root of R − 1 in the bracket the comment writes.
"""

import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from canp import ModelParams, cli
from test_exact_reference import (ALPHA, DPS, THRESHOLDS, _bracket, _forms, _variance,
                                  reference, reference_delta, reference_homodyne,
                                  reference_threshold)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BOUND = 1e-14
NEAR = (2.0 * math.pi, 4.0 * math.pi)
# experiment: (fixed phase, or None for the sqrtDelta_tc axis; the checked
# columns as (CSV column, reference "F", "S", "R", "Delta", "F_C", "P" or
# "CFI"); the row stride; the phases whose nearest row of each model value is
# checked too).
WITNESSED = {
    "fig2a": (None, (("R", "R"),), 97, ()),
    "fig2b": (None, (("R", "R"),), 7, NEAR),
    "fig2b-inset": (math.pi, (("R_tau", "R"),), 1, ()),
    "fig3a": (None, (("F", "F"), ("S", "S")), 7, NEAR),
    "fig3b": (math.pi, (("qfi", "F"), ("meanP", "P"), ("cfi", "CFI")), 1, ()),
    "lmg-threshold": (math.pi, (("R_tau", "R"),), 1, ()),
    "displacement": (0.5 * math.pi, (("qfi_exact", "F"), ("R", "R"), ("delta_p", "Delta"),
                                     ("qfi_formula", "F_C")), 1, ()),
}


def single_commutator_qfi(params: ModelParams, y: float, delta, t_theta: float):
    """4t_θ²·sin²y/Δ·Var[C] in the probe, C = i[H_c, H_θ] from the reference's forms."""
    mp = mpmath.mp
    g_c, encoding = _forms(params)
    c_op = _bracket((g_c, mp.zeros(2, 1)), encoding)
    probe = mp.sqrt(2) * mp.matrix([mp.mpf(ALPHA.real), mp.mpf(ALPHA.imag)])
    variance = _variance(c_op, probe, mp.eye(2) / 2)
    return 4 * mp.mpf(t_theta) ** 2 * mp.sin(mp.mpf(y)) ** 2 / delta * variance


def _written(experiment: str, config: Path, tmp_path) -> tuple[list[str], dict[str, list[str]]]:
    """The CSV the config writes: its comment lines, and column name -> cell texts."""
    out = tmp_path / f"{experiment}.csv"
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    lines = lines[len(comments):]
    names = lines[0].split(",")
    return comments, dict(zip(names, zip(*(line.split(",") for line in lines[1:]))))


def _sampled_rows(table: dict, stride: int, near: tuple) -> list[int]:
    """Every stride-th row, and each model value's rows nearest the phases `near`."""
    n_rows = len(next(iter(table.values())))
    rows = set(range(0, n_rows, stride))
    if near:
        phase = np.array(table["sqrtDelta_tc"], dtype=float)
        starts = np.flatnonzero(np.diff(phase, prepend=np.inf) < 0.0)  # each model value's first row
        for start, stop in zip(starts, [*starts[1:], n_rows]):
            rows.update(int(start + np.abs(phase[start:stop] - y).argmin()) for y in near)
    return sorted(rows)


def worst_errors(experiment: str, tmp_path) -> dict[str, float]:
    """The worst relative error of each checked column over its sampled rows."""
    fixed_phase, columns, stride, near = WITNESSED[experiment]
    path = CONFIG_DIR / f"{experiment.replace('-', '_')}.json"
    config = json.loads(path.read_text())
    assert complex(config["alpha"]["re"], config["alpha"]["im"]) == ALPHA
    assert config.get("theta0", 0.0) == 0.0  # the reference's working point
    model = ModelParams.from_dict(config["model"])
    _, table = _written(experiment, path, tmp_path)
    swept = next((name for name in ("g", "lambda") if name in table), None)
    worst, deltas = {name: 0.0 for name, _ in columns}, {}
    with mpmath.workdps(DPS):
        for row in _sampled_rows(table, stride, near):
            params = model
            if swept is not None:
                field = "lam" if swept == "lambda" else "g"
                params = model._replace(**{field: float(table[swept][row])})
            if params not in deltas:
                deltas[params] = reference_delta(params)
            y = fixed_phase if fixed_phase is not None else float(table["sqrtDelta_tc"][row])
            t_c = mpmath.mpf(y) / mpmath.sqrt(deltas[params])
            t_theta = float(table["t_theta"][row]) if "t_theta" in table else config["t_theta"]
            qfi, ratio = reference(params, t_c, t_theta)
            want = {"F": qfi, "S": qfi / (4 * mpmath.mpf(t_theta) ** 2), "R": ratio,
                    "Delta": deltas[params]}
            quantities = {quantity for _, quantity in columns}
            if "F_C" in quantities:
                want["F_C"] = single_commutator_qfi(params, y, deltas[params], t_theta)
            # Each error is relative to the value, or for ⟨P⟩, which crosses
            # zero, to at least its own noise scale √Var P.
            scale = {}
            if "P" in quantities:
                want["P"], var_p, want["CFI"] = reference_homodyne(params, t_c, t_theta)
                scale["P"] = max(abs(want["P"]), mpmath.sqrt(var_p))
            for name, quantity in columns:
                error = abs(float(table[name][row]) - want[quantity])
                error /= scale.get(quantity, abs(want[quantity]))
                worst[name] = max(worst[name], float(error))
    return worst


@pytest.mark.parametrize("experiment", WITNESSED)
def test_written_csv_matches_the_50_digit_reference(experiment, tmp_path):
    worst = worst_errors(experiment, tmp_path)
    for name, error in worst.items():
        assert error <= BOUND, f"{experiment} column {name} off by {error:.2e}"


def test_lambda_star_comment_is_near_the_50_digit_root(tmp_path):
    # The threshold lmg-threshold writes, against the root of the 50-digit
    # R − 1 in the bracket it writes, within the exact-reference gate's ulps.
    path = CONFIG_DIR / "lmg_threshold.json"
    config = json.loads(path.read_text())
    assert complex(config["alpha"]["re"], config["alpha"]["im"]) == ALPHA
    comments, _ = _written("lmg-threshold", path, tmp_path)
    [(found, lo, hi)] = [match.groups() for comment in comments
                         if (match := re.fullmatch(r"lambda_star=(\S+) bracket=\((\S+),(\S+)\)",
                                                   comment))]
    found = float(found)
    [ulps] = [ulps for _, key, ulps in THRESHOLDS if key == "lambda_star"]
    with mpmath.workdps(DPS):
        root = reference_threshold(ModelParams.from_dict(config["model"]), config["t_theta"],
                                   (float(lo), float(hi)))
        gap = float((found - root) / math.ulp(float(root)))
    assert abs(gap) <= ulps, f"lambda_star = {found!r} is {gap:+.1f} ulps away"
