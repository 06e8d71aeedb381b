"""canp benchmark runner.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload it runs one workload and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Without --workload it
runs every workload both ways and prints every metric, keyed
"<workload>.<metric>". See benchmarks/README.md for what each metric means.

Every sample is a fresh interpreter (child.py): users run one experiment per
process, so nothing cached inside a process may carry over between samples.
Timed runs alternate the program with a frozen copy of it (baseline/) and
report times relative to that copy, so that the speed of a shared machine,
which drifts by tens of percent within minutes, cancels out.
Work files go to .bench_build/ in the checkout and are removed at the end;
a record of the run, with the environment, is kept in .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS before anything imports numpy: the oracle checks run in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# A frozen copy of src/canp from the commit that defined the benchmark. Timed
# runs alternate it with the program; see run_timed and README.md.
BASELINE = BENCH / "baseline"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (after the BLAS pin and the path set-up)
import workloads  # noqa: E402

# Set-up time is noisy (it is mostly numpy's and scipy's import), so every run
# takes at least this many set-up ratios.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
# Median time of the baseline on each workload, on the 2-CPU x86_64 machine
# the benchmark was defined on. The timed metrics are the program-to-baseline
# ratios times these, so they read as seconds on that machine.
BASELINE_SCALE = {
    "grid-sweep": {"wall_s": 1.572, "cpu_s": 2.974, "setup_s": 0.545},
    "figure-suite": {"wall_s": 1.048, "cpu_s": 1.907, "setup_s": 0.488},
    "oracle": {"wall_s": 1.134, "cpu_s": 1.44, "setup_s": 0.512},
}
DEFAULT_SECONDS = 36

VALIDATE_CHECKS = (
    "check_algebraic_criterion", "check_operator_constants", "check_oracle_agreement",
    "check_thresholds", "check_short_time_scaling", "check_near_critical_scaling",
    "check_skew_identity", "check_homodyne_efficiency", "check_structural_sanity",
)
LAYERS = ("cli", "experiments", "validate", "metrology", "models", "operators", "gaussian",
          "fock")
EXPERIMENT_RUNNERS = ("fig2a", "fig2b", "fig2b_inset", "fig3a", "fig3b", "lmg_threshold",
                      "displacement", "validate")
# (span name, field) pairs reported from the traced run.
SPAN_METRICS = (
    ("cli.main", "self_s"),
    ("operators.derive_critical_structure", "calls"),
    ("operators.derive_critical_structure", "self_s"),
    ("gaussian.evolution_map", "self_s"),
    ("gaussian.variance_quadratic", "self_s"),
    ("gaussian.GaussianState.__post_init__", "calls"),
    ("metrology.enhancement_ratio", "self_s"),
    ("metrology.qfi_exact", "self_s"),
    ("metrology.direct_baseline", "self_s"),
    ("metrology.skew_information", "self_s"),
    ("metrology.cfi_homodyne", "calls"),
    ("metrology.cfi_homodyne", "self_s"),
    ("metrology.find_threshold", "calls"),
    ("metrology.find_threshold", "self_s"),
    ("experiments.write_csv", "self_s"),
    ("experiments.load_config", "self_s"),
    ("experiments.config_from_dict", "self_s"),
    *((f"experiments.run_{name}", "self_s") for name in EXPERIMENT_RUNNERS),
    *((f"fock.Propagator.dim{d}", field) for d in (60, 120, 240, 480)
      for field in ("calls", "self_s")),
    ("fock.qfi_numeric", "self_s"),
    ("fock.converged_protocol_state", "self_s"),
    ("fock.fock_moments", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s"}


class SampleError(Exception):
    """A child interpreter crashed, timed out or wrote no result."""


class Runner:
    """Runs child interpreters for one workload and seed inside a work directory."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.jobs = workloads.make(workload, seed)
        self.config_paths = []
        for i, (exp, cfg) in enumerate(self.jobs):
            path = work / f"{i}-{exp}.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            self.config_paths.append(str(path))
        self._count = 0

    def outputs(self, tag: str) -> list[dict]:
        """Experiment, config and output path of every job, writing under `tag`."""
        out_dir = self.work / f"out-{tag}"
        out_dir.mkdir(exist_ok=True)
        return [
            {"experiment": exp, "config": cfg, "config_path": cfg_path,
             "out": str(out_dir / f"{i}-{exp}.{'json' if exp == 'validate' else 'csv'}")}
            for i, ((exp, cfg), cfg_path) in enumerate(zip(self.jobs, self.config_paths))
        ]

    def child(self, script: str, args: list[str], env_extra: dict | None = None,
              src: Path = SRC) -> float:
        """Run a script of this directory in a fresh interpreter; returns its launch time."""
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("CANP_THREADS", None)  # the pool keeps its default size
        env.update(env_extra or {})
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args], cwd=self.work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            raise SampleError(f"{script} timed out after {CHILD_TIMEOUT_S} s")
        finally:
            try:  # reap pool workers a crashed child may have left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise SampleError(f"{script} exited with {proc.returncode}: {stderr.strip()[-2000:]}")
        return launched

    def sample(self, mode: str, jobs: list[dict] | None = None,
               env_extra: dict | None = None, baseline: bool = False) -> dict:
        """One child.py sample; adds setup_s (launch to ready) to its result.

        With `baseline`, the sample runs the frozen copy in baseline/ instead
        of the program under src/.
        """
        self._count += 1
        tag = f"{mode}-{self._count}"
        src = BASELINE if baseline else SRC
        spec = {
            "mode": mode, "src": str(src),
            "argv": [[j["experiment"], "--config", j["config_path"], "--out", j["out"]]
                     for j in jobs or []],
            "spans": str(self.work / f"{tag}.spans.npz"),
            "first_config": self.config_paths[0],
        }
        spec_path, result_path = self.work / f"{tag}.spec.json", self.work / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        launched = self.child("child.py", [str(spec_path), str(result_path)], env_extra, src)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SampleError(f"child wrote no result: {exc}") from exc
        result["setup_s"] = result["ready"] - launched
        result["spans"] = spec["spans"]
        return result


def digest(jobs: list[dict]) -> dict[str, str]:
    """SHA-256 of each CSV output (validate reports carry timings, so they differ)."""
    return {
        j["experiment"]: hashlib.sha256(Path(j["out"]).read_bytes()).hexdigest()
        for j in jobs if j["experiment"] != "validate" and Path(j["out"]).exists()
    }


def count_points(jobs: list[dict]) -> int:
    """Output rows: CSV data rows, and one per check of a validate report."""
    points = 0
    for j in jobs:
        if j["experiment"] == "validate":
            points += len(json.loads(Path(j["out"]).read_text(encoding="utf-8"))["checks"])
        else:
            points += len(checks.read_csv(j["out"])[2])
    return points


def job_failures(result: dict, jobs: list[dict]) -> list[str]:
    return [f"{j['experiment']}: exit {code}" for j, code in zip(jobs, result["exits"])
            if code != 0]


def environment(child_env: dict | None) -> dict:
    env = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }
    env.update(child_env or {})
    return env


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def summary_line(name: str, values: list[float], unit: str) -> str:
    return (f"  {name:<16} median {statistics.median(values):.6g} {unit}"
            f"  max {max(values):.6g}  min {min(values):.6g}  n={len(values)}")


def relative(sequence: list[tuple[bool, float]]) -> list[float]:
    """Each program value of an interleaved sequence over its baseline neighbours.

    `sequence` holds (is_baseline, value) in the order measured. Every program
    value is divided by the geometric mean of the nearest baseline value
    before it and the nearest after it, which cancels a machine speed that
    drifts linearly across the three.
    """
    ratios = []
    for i, (is_baseline, value) in enumerate(sequence):
        if is_baseline:
            continue
        before = next((v for b, v in reversed(sequence[:i]) if b), None)
        after = next((v for b, v in sequence[i + 1:] if b), None)
        near = [v for v in (before, after) if v is not None]
        ratios.append(value / math.prod(near) ** (1.0 / len(near)))
    return ratios


def interquartile_mean(values: list[float]) -> float:
    """Geometric mean of the middle half of `values` (all of them below 4)."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return math.exp(sum(math.log(v) for v in middle) / len(middle))


def run_timed(runner: Runner, seconds: int) -> dict:
    """--trace 0: alternate program and baseline samples for `seconds`.

    The sequence is B P B P ... P B: every program sample (P) sits between
    two samples of the frozen baseline (B) on the same inputs. Each time is
    reported as the interquartile mean, over the run, of the program's time
    over its neighbouring baseline times, scaled by the baseline's time on
    the reference machine (BASELINE_SCALE). The window starts with the
    warm-up launches; a new pair starts while it would overrun the window by
    at most half a pair. When fewer than SETUP_SAMPLES pairs fit, set-up-only
    launches of both are spread between the pairs, so the set-up ratio has at
    least that many values. Peak memory is not scaled: it is the median of
    the program's samples.
    """
    start = time.monotonic()
    deadline = start + seconds
    jobs, base_jobs = runner.outputs("timed"), runner.outputs("baseline")
    runner.sample("setup")  # warm-up: compiles bytecode in a fresh checkout
    runner.sample("setup", baseline=True)
    attempted, failures, samples = 0, [], []
    runs: list[tuple[bool, dict]] = []
    setups: list[tuple[bool, float]] = []
    check = checks.Result()
    first_digest = None
    probes = missing = 0
    expected = 1

    def baseline_sample(mode: str) -> dict | None:
        try:
            result = runner.sample(mode, base_jobs if mode == "run" else None, baseline=True)
        except SampleError as exc:
            failures.append(f"baseline: {exc}")
            return None
        bad = job_failures(result, base_jobs) if mode == "run" else []
        failures.extend(f"baseline {b}" for b in bad)
        setups.append((True, result["setup_s"]))
        if mode == "run" and not bad:
            runs.append((True, result))
        return result

    baseline_sample("run")
    pairs = 0
    first = time.monotonic()
    while not failures:
        pairs += 1
        attempted += len(jobs)
        try:
            result = runner.sample("run", jobs)
        except SampleError as exc:
            failures.extend(f"{j['experiment']}: {exc}" for j in jobs)
        else:
            bad = job_failures(result, jobs)
            failures.extend(bad)
            setups.append((False, result["setup_s"]))
            if not bad:
                samples.append(result)
                runs.append((False, result))
                if first_digest is None:
                    first_digest = digest(jobs)
                elif digest(jobs) != first_digest:
                    check.fail("outputs differ between samples of the same seed")
                validate_jobs = [j for j in jobs if j["experiment"] == "validate"]
                check.merge(checks.check_outputs(runner.workload, runner.seed, validate_jobs,
                                                 False))
        for i in range(probes):  # alternate which of the two launches first
            if (pairs + i) % 2:
                baseline_sample("setup")
            setups.append((False, runner.sample("setup")["setup_s"]))
            if not (pairs + i) % 2:
                baseline_sample("setup")
        baseline_sample("run")
        now = time.monotonic()
        if pairs == 1:  # spread the missing set-up launches over the pairs to come
            expected = max(1, int((deadline - first) / (now - first)))
            missing = max(0, SETUP_SAMPLES - expected)
        probes = (pairs + 1) * missing // expected - pairs * missing // expected
        if now + 0.5 * (now - first) / pairs > deadline:
            break
    while not failures and sum(not b for b, _ in setups) < SETUP_SAMPLES:
        setups.append((False, runner.sample("setup")["setup_s"]))
        baseline_sample("setup")
    if samples:  # every sample wrote these same bytes (checked above)
        check.merge(checks.check_outputs(runner.workload, runner.seed, jobs, True))
        points = count_points(jobs)

    failed = len(failures) + (len(jobs) if check.failures else 0)
    metrics, lines = {}, []
    if samples and not failures:
        scale = BASELINE_SCALE[runner.workload]
        series = {
            "wall_s": relative([(b, r["wall_s"]) for b, r in runs]),
            "cpu_s": relative([(b, r["cpu_s"]) for b, r in runs]),
            "setup_s": relative(setups),
        }
        for name, ratios in series.items():
            value = interquartile_mean(ratios) * scale[name]
            metrics[name] = {"value": value, "unit": "s"}
            own = [r[name] for b, r in runs if not b] if name != "setup_s" else \
                [v for b, v in setups if not b]
            base = [r[name] for b, r in runs if b] if name != "setup_s" else \
                [v for b, v in setups if b]
            lines.append(
                f"  {name:<12} {value:.6g} s  ratio {interquartile_mean(ratios):.4f}"
                f" (median {statistics.median(ratios):.4f} min {min(ratios):.4f}"
                f" max {max(ratios):.4f} n={len(ratios)})"
                f"  (raw median {statistics.median(own):.4g} s,"
                f" baseline {statistics.median(base):.4g} s)")
        metrics["points_per_s"] = {"value": points / metrics["wall_s"]["value"], "unit": "1/s"}
        lines.append(f"  points_per_s {metrics['points_per_s']['value']:.6g} 1/s"
                     f"  ({points} rows / wall_s)")
        rss = [s["peak_rss_mb"] for s in samples]
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        lines.append(summary_line("peak_rss_mb", rss, "MB"))
    return {
        "correct": not failures and not check.failures and bool(samples),
        "attempted": max(1, attempted),
        "failed": min(failed, max(1, attempted)),
        "metrics": metrics,
        "lines": lines,
        "failures": failures + check.failures,
        "worst_deviation": check.worst[1] or "none compared",
        "checked_rows": check.checked_rows,
        "environment": environment(samples[0]["environment"] if samples else None),
        "raw": {"program_and_baseline": runs, "setup": setups},
    }


def run_traced(runner: Runner) -> dict:
    """--trace 1: one untraced and one traced serial run, plus the per-call table."""
    import tracer

    serial_env = {"CANP_THREADS": "1"}  # every call in one process; see README
    plain_jobs, traced_jobs = runner.outputs("serial"), runner.outputs("traced")
    runner.sample("setup")
    failures: list[str] = []
    check = checks.Result()
    try:
        plain = runner.sample("run", plain_jobs, serial_env)
        traced = runner.sample("trace", traced_jobs, serial_env)
    except SampleError as exc:
        failures.append(str(exc))
        plain = traced = None
    if plain is not None:
        failures += job_failures(plain, plain_jobs) + job_failures(traced, traced_jobs)
    if not failures:
        if digest(plain_jobs) != digest(traced_jobs):
            check.fail("traced run wrote different CSV bytes than the untraced run")
        check.merge(checks.check_outputs(runner.workload, runner.seed, plain_jobs, True))
        check.merge(checks.check_outputs(runner.workload, runner.seed, traced_jobs, False))

    attempted = 2 * len(runner.jobs)
    failed = min(attempted, len(failures) + (1 if check.failures else 0))
    metrics: dict = {}

    percall_path = runner.work / "percall.json"
    try:
        runner.child("percall.py", [str(percall_path), str(runner.work)])
        percall = json.loads(percall_path.read_text(encoding="utf-8"))
    except (SampleError, OSError, ValueError) as exc:
        check.fail(f"per-call table: {exc}")
        percall = {"us_per_call": {}, "missing": []}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    if traced is not None and not failures:
        spans, counters = tracer.load(traced["spans"])
        zero = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
        for layer in LAYERS:
            put(f"{layer}.self_s", sum(v["self_s"] for k, v in spans.items()
                                       if k.split(".", 1)[0] == layer), "s")
        for name, field in SPAN_METRICS:
            put(f"{name}.{field}", spans.get(name, zero)[field], UNITS[field])
        for check_name in VALIDATE_CHECKS:
            put(f"validate.{check_name}.s", spans.get(f"validate.{check_name}", zero)["inclusive_s"], "s")
        builds = counters["fock.Propagator.builds"]
        put("experiments.write_csv.bytes", counters["experiments.write_csv.bytes"], "bytes")
        put("fock.propagator_useful_ratio",
            (builds - counters["fock.Propagator.failed_builds"]) / builds if builds else 0.0,
            "ratio")
        put("fock.truncation_failures", counters["fock.truncation_failures"], "count")
        put("trace.wall_s", traced["wall_s"], "s")
        put("trace.untraced_wall_s", plain["wall_s"], "s")
        put("trace.overhead_frac", traced["wall_s"] / plain["wall_s"] - 1.0, "frac")
        put("trace.untraced_remainder_s", traced["wall_s"] - spans[""]["self_s"], "s")
        put("trace.spans", sum(v["calls"] for k, v in spans.items() if k), "count")
    for name, us in percall["us_per_call"].items():
        put(f"{name}.us_per_call", us, "us")
    put("failed_frac", failed / attempted, "frac")
    lines = [f"  {name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  per-call function missing: {m}" for m in percall["missing"]]
    return {
        "correct": not failures and not check.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "failures": failures + check.failures,
        "worst_deviation": check.worst[1] or "none compared",
        "checked_rows": check.checked_rows,
        "environment": environment(plain["environment"] if plain else None),
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = ROOT / ".bench_build" / f"canp-{workload}-{os.getpid()}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work)
        result = run_traced(runner) if trace else run_timed(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record_dir = ROOT / ".bench_build" / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace)
    (record_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    mode = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload} seed={seed} {mode}"
          + ("  [seed ignored: fixed config]" if workload in workloads.SEED_INDEPENDENT else ""))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    print(f"  output check: {result['checked_rows']} rows/records checked, "
          f"worst: {result['worst_deviation']}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "canp" / "__init__.py").is_file():
        print(f"no canp sources at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload is not None:
        trace = args.trace or 0
        result = run_one(args.workload, args.seed, args.seconds, trace)
        summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            for trace in ((0, 1) if args.trace is None else (args.trace,)):
                result = run_one(workload, args.seed, args.seconds, trace)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                summary["metrics"].update(
                    {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
