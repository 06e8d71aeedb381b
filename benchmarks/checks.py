"""Output checks for benchmark runs.

Every run's outputs are checked in one of two ways:

* for the seeds that have a reference file (the seeds the benchmark runs by
  default), every CSV value is compared with the value the program wrote at
  the commit that defined the benchmark;
* for any other seed, a seeded sample of rows is recomputed with the
  truncated number-basis oracle `canp.fock`, which shares no code with the
  closed-form Gaussian path that produced the CSV.

The `validate` report must pass every check in both cases.

Run `python3 benchmarks/checks.py` to rewrite the reference files; do that
only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (0,)

# Rows kept in a reference file: all of them, except for CSVs longer than
# this, where every k-th row is kept so the file stays small.
MAX_REFERENCE_ROWS = 2000

# Closed-form columns must agree to this, relative with a max(1, |x|) floor
# (the "same numbers" rule).
CLOSED_FORM_TOL = 1e-12
# Columns computed by finite differences get a looser tolerance: a last-bit
# change in the moments moves a Richardson-differenced derivative by about
# eps / dtheta.
FINITE_DIFFERENCE_TOL = {("fig3b", "cfi"): 1e-6, ("fig3b", "cfi_over_qfi"): 1e-6}
# Numbers carried in CSV comment lines. lambda_star comes out of a bisection
# stopped at 1e-4, so a last-bit change of R near 1 can move it by one step.
COMMENT_TOL = {"lambda_star": 1e-4, "meanP_zero_crossing": 1e-12}

# Oracle spot checks: the fidelity-based numeric QFI is good to about 1e-4
# relative (the validate report's own tolerance); moments are far tighter.
ORACLE_QFI_TOL = 1e-3
ORACLE_MOMENT_TOL = 1e-6
ORACLE_ROWS = {"fig2a": 6}
ORACLE_ROWS_DEFAULT = 2

_COMMENT_NUMBER = re.compile(r"(lambda_star|meanP_zero_crossing)(?:=| g=)([-+0-9.eE]+)")


def read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[float]]]:
    """(comment lines, header, rows) of a CSV written by canp."""
    comments, header, rows = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif not header:
                header = line.split(",")
            elif line:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, rows


def _comment_numbers(comments: list[str]) -> list[tuple[str, float]]:
    found = []
    for comment in comments[1:]:  # the first line is version and config hash
        found.extend((m.group(1), float(m.group(2))) for m in _COMMENT_NUMBER.finditer(comment))
    return found


def _deviation(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


class Result:
    """Failures and the worst deviation seen, relative to each tolerance."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.worst: tuple[float, str] = (-1.0, "")  # (deviation / tolerance, where)
        self.checked_rows = 0

    def compare(self, got: float, want: float, tol: float, where: str) -> None:
        dev = _deviation(got, want)
        if not math.isfinite(got) or dev > tol:
            self.failures.append(f"{where}: got {got!r}, want {want!r} (tolerance {tol:g})")
        if dev / tol >= self.worst[0]:
            self.worst = (dev / tol, f"{where}: deviation {dev:.3g} of tolerance {tol:g}")

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def merge(self, other: "Result") -> None:
        self.failures.extend(other.failures)
        self.checked_rows += other.checked_rows
        self.worst = max(self.worst, other.worst)


# --- reference comparison -------------------------------------------------


def _reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = _reference_path(workload, seed)
    if seed not in REFERENCE_SEEDS or not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def snapshot(experiment: str, path: str | Path) -> dict:
    """Reference record of one output file."""
    if experiment == "validate":
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        return {"checks": [c["name"] for c in report["checks"]]}
    comments, header, rows = read_csv(path)
    step = max(1, -(-len(rows) // MAX_REFERENCE_ROWS))
    return {
        "header": header,
        "comments": _comment_numbers(comments),
        "n_rows": len(rows),
        "rows": [[i, *rows[i]] for i in range(0, len(rows), step)],
    }


def compare_reference(experiment: str, path: str | Path, ref: dict) -> Result:
    res = Result()
    if experiment == "validate":
        return res  # validate_report() checks it; the check names are compared there
    comments, header, rows = read_csv(path)
    if header != ref["header"]:
        res.fail(f"{experiment}: header {header} != reference {ref['header']}")
        return res
    if len(rows) != ref["n_rows"]:
        res.fail(f"{experiment}: {len(rows)} rows, reference has {ref['n_rows']}")
        return res
    for i, *want in ref["rows"]:
        row = rows[i]
        for col, got, exp in zip(header, row, want):
            if col == "enhanced":
                continue  # checked against R below
            tol = FINITE_DIFFERENCE_TOL.get((experiment, col), CLOSED_FORM_TOL)
            res.compare(got, exp, tol, f"{experiment} row {i} {col}")
        res.checked_rows += 1
    if "enhanced" in header:
        r_col, e_col = header.index("R"), header.index("enhanced")
        bad = [i for i, row in enumerate(rows) if row[e_col] != float(row[r_col] > 1.0)]
        if bad:
            res.fail(f"{experiment}: 'enhanced' disagrees with R > 1 on rows {bad[:5]}")
    got_comments = _comment_numbers(comments)
    if [k for k, _ in got_comments] != [k for k, _ in ref["comments"]]:
        res.fail(f"{experiment}: comment numbers {got_comments} != reference {ref['comments']}")
    else:
        for (key, got), (_, exp) in zip(got_comments, ref["comments"]):
            res.compare(got, exp, COMMENT_TOL[key], f"{experiment} comment {key}")
    return res


# --- number-basis oracle spot checks -------------------------------------


def _row_spec(experiment: str, cfg: dict, values: dict) -> SimpleNamespace:
    """The protocol instance behind one CSV row, built from public model presets."""
    from canp.models import ModelParams

    model = dict(cfg["model"])
    if "g" in values:
        model["g"] = values["g"]
    if "lambda" in values:
        model["lambda"] = values["lambda"]
    params = ModelParams.from_dict(model)
    sqrt_delta_tc = {"fig2b-inset": math.pi, "fig3b": math.pi, "lmg-threshold": math.pi,
                     "displacement": 0.5 * math.pi}.get(experiment, values.get("sqrtDelta_tc"))
    return SimpleNamespace(
        Hc=params.preparation(), Htheta=params.encoding(),
        t_c=sqrt_delta_tc / math.sqrt(params.published_delta()),
        t_theta=values.get("t_theta", cfg.get("t_theta")),
        alpha=complex(cfg["alpha"]["re"], cfg["alpha"]["im"]),
        theta0=cfg.get("theta0", 0.0),
    )


def _oracle_values(experiment: str, spec, columns: list[str], dim: int) -> dict:
    """{column: (value, tolerance)} of the checkable columns at one truncation."""
    from canp import fock

    def state(theta: float):
        return fock.converged_protocol_state(spec, theta, start_dim=dim, max_dim=dim)

    out: dict = {}
    qfi = fock.qfi_numeric(spec, start_dim=dim, max_dim=dim)
    for col in {"R", "R_tau"} & set(columns):
        # Direct-encoding baseline: a coherent probe with the final photon
        # number, encoded for the whole time t_c + t_theta.
        nbar = max(fock.mean_photon_fock(state(spec.theta0)), 0.0)
        reference = fock.coherent_fock(math.sqrt(nbar), dim)
        baseline = 4.0 * (spec.t_c + spec.t_theta) ** 2 * fock.variance_fock(reference, spec.Htheta)
        out[col] = (qfi / baseline, ORACLE_QFI_TOL)
    if experiment == "fig3a":
        out["S"] = (fock.variance_fock(state(0.0), spec.Htheta), ORACLE_MOMENT_TOL)
        out["F"] = (qfi, ORACLE_QFI_TOL)
    if experiment == "fig3b":
        mu, _ = fock.fock_moments(state(spec.theta0))
        out["meanP"] = (float(mu[1]), ORACLE_MOMENT_TOL)
        out["qfi"] = (qfi, ORACLE_QFI_TOL)
    if experiment == "displacement":
        out["qfi_exact"] = (qfi, ORACLE_QFI_TOL)
    return out


def oracle_spot_check(experiment: str, cfg: dict, path: str | Path, seed: int) -> Result:
    """Recompute a seeded sample of rows with the number-basis oracle.

    The tail-mass test only looks at the final state, and a squeezing
    trajectory can leave the truncation on the way and come back. So a row
    counts as checkable only when the oracle gives the same values, to a
    tenth of the tolerance, at the smallest truncation that passes the tail
    test and at twice that. Rows that fail this are skipped; at most four
    times the wanted number of rows are tried, and at least one must be
    checked.
    """
    from canp import fock
    from canp.errors import TruncationNotConvergedError

    res = Result()
    if experiment == "validate":
        return res
    _, header, rows = read_csv(path)
    wanted = ORACLE_ROWS.get(experiment, ORACLE_ROWS_DEFAULT)
    order = list(range(len(rows)))
    random.Random(f"canp-bench-oracle:{experiment}:{seed}").shuffle(order)
    for i in order[: 4 * wanted]:
        if res.checked_rows == wanted:
            break
        values = dict(zip(header, rows[i]))
        spec = _row_spec(experiment, cfg, values)
        try:
            dim = fock.converged_protocol_state(spec, spec.theta0).dim
            if 2 * dim > fock.MAX_DIM:
                continue
            coarse = _oracle_values(experiment, spec, header, dim)
            fine = _oracle_values(experiment, spec, header, 2 * dim)
        except TruncationNotConvergedError:
            continue
        if any(_deviation(coarse[c][0], v) > 0.1 * tol for c, (v, tol) in fine.items()):
            continue
        for col, (want, tol) in fine.items():
            res.compare(values[col], want, tol, f"{experiment} row {i} {col} vs oracle")
        res.checked_rows += 1
    if res.checked_rows == 0:
        res.fail(f"{experiment}: no sampled row could be checked against the oracle")
    return res


def validate_report(path: str | Path, ref: dict | None) -> Result:
    res = Result()
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        res.fail(f"validate: failed checks {failed}")
    if ref is not None and [c["name"] for c in report["checks"]] != ref["checks"]:
        res.fail(f"validate: checks {[c['name'] for c in report['checks']]} != {ref['checks']}")
    res.checked_rows = len(report["checks"])
    return res


def check_outputs(workload: str, seed: int, jobs: list[dict], with_oracle: bool) -> Result:
    """Check every output of one sample; `jobs` carry experiment, config and out path."""
    ref = load_reference(workload, seed)
    res = Result()
    for job in jobs:
        exp, out = job["experiment"], job["out"]
        if not Path(out).exists():
            res.fail(f"{exp}: no output at {out}")
            continue
        exp_ref = None if ref is None else ref[exp]
        if exp == "validate":
            res.merge(validate_report(out, exp_ref))
        elif exp_ref is not None:
            res.merge(compare_reference(exp, out, exp_ref))
        elif with_oracle:
            res.merge(oracle_spot_check(exp, job["config"], out, seed))
    return res


def write_references() -> None:
    """Run every workload at each reference seed and store its outputs."""
    import tempfile

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from canp import cli
    import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    (root / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_build") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in REFERENCE_SEEDS:
                record = {}
                for exp, cfg in workloads.make(workload, seed):
                    cfg_path, out = Path(tmp, f"{exp}.json"), str(Path(tmp, f"{exp}.out"))
                    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
                    if cli.main([exp, "--config", str(cfg_path), "--out", out]) != 0:
                        raise SystemExit(f"{workload} seed {seed}: {exp} failed")
                    record[exp] = snapshot(exp, out)
                data = json.dumps(record, separators=(",", ":")).encode("utf-8")
                _reference_path(workload, seed).write_bytes(gzip.compress(data, mtime=0))
                print(f"wrote {_reference_path(workload, seed)}")


if __name__ == "__main__":
    import os

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before canp imports numpy, as in the benchmark runs
    write_references()
