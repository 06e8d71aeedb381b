"""The benchmark's own tests.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these out of the repository's test suite: they exercise
the benchmark, not canp, and one of them starts child interpreters.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from canp import metrology  # noqa: E402
from canp.experiments import config_from_dict  # noqa: E402
from canp.gaussian import quadrature_stats  # noqa: E402
from canp.models import ModelParams  # noqa: E402

SEEDS = range(50)


def test_self_time_arithmetic_on_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9];  second root c [10, 12]
    names = ["root", "a", "a1", "b", "c"]
    name_id = np.array([0, 1, 2, 3, 4, 1], dtype=np.int32)
    parent = np.array([-1, 0, 1, 0, -1, 4], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0, 10.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0, 11.0])
    # the last span is a second call of "a", under c
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    summary = tracer.summarize(names, name_id, parent, start, end)
    assert summary["a"] == {"calls": 2, "self_s": 2.5, "inclusive_s": 3.5}
    assert summary["root"]["self_s"] == 3.0
    # the self times add up to the time the root spans cover
    assert summary[""] == {"calls": 2, "self_s": 12.0, "inclusive_s": 12.0}


def test_baseline_ratios_cancel_a_drifting_machine():
    # the machine slows down by 10 % per sample; the program is 2x the baseline
    speed = [1.1 ** i for i in range(7)]
    sequence = [(i % 2 == 0, (1.0 if i % 2 == 0 else 2.0) * v) for i, v in enumerate(speed)]
    assert run.relative(sequence) == pytest.approx([2.0, 2.0, 2.0])
    # a program sample at an end is set against its one neighbour
    assert run.relative([(False, 3.0), (True, 1.5)]) == [2.0]
    # the interquartile mean drops the outer quarters before its geometric mean
    assert run.interquartile_mean([9.0, 2.0, 0.1, 8.0]) == pytest.approx(4.0)
    assert run.interquartile_mean([5.0, 20.0]) == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores_them():
    from canp import experiments, metrology

    original = metrology.enhancement_ratio
    runner = experiments.RUNNERS["fig2a"]
    t = tracer.Tracer()
    t.install()
    try:
        assert experiments.enhancement_ratio is metrology.enhancement_ratio
        assert experiments.enhancement_ratio is not original
        assert experiments.RUNNERS["fig2a"] is not runner
    finally:
        t.uninstall()
    assert metrology.enhancement_ratio is original
    assert experiments.enhancement_ratio is original
    assert experiments.RUNNERS["fig2a"] is runner


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_configs_parse_and_keep_the_amount_of_work(workload):
    sizes = set()
    for seed in SEEDS:
        jobs = workloads.make(workload, seed)
        for _, cfg in jobs:
            config_from_dict(cfg)  # raises ConfigError on any invalid config
        sizes.add(tuple(
            (exp, len(cfg.get("g_values", ())),
             tuple((name, ax["points"]) for name, ax in cfg.get("sweep", {}).items()),
             tuple(cfg.get("bracket", ())))
            for exp, cfg in jobs
        ))
    assert len(sizes) == 1
    if workload in workloads.SEED_INDEPENDENT:
        assert all(workloads.make(workload, s) == workloads.make(workload, 0) for s in SEEDS)
    else:
        assert workloads.make(workload, 1) != workloads.make(workload, 2)
        assert workloads.make(workload, 1) == workloads.make(workload, 1)


def test_seeded_bisections_do_the_same_work():
    # find_threshold needs a sign change inside the fixed bracket, and fig3b
    # refines every sign change of <P>: both must look alike for every seed.
    for seed in SEEDS:
        cfgs = dict(workloads.make("figure-suite", seed))
        lmg = cfgs["lmg-threshold"]
        alpha = complex(lmg["alpha"]["re"], lmg["alpha"]["im"])
        lam = metrology.find_threshold("LMG-frequency", lmg["t_theta"], alpha,
                                       tuple(lmg["bracket"]), gamma=2.0)
        assert lmg["bracket"][0] < lam < lmg["bracket"][1]

        fig3b = cfgs["fig3b"]
        alpha = complex(fig3b["alpha"]["re"], fig3b["alpha"]["im"])
        axis = fig3b["sweep"]["g"]
        signs = set()
        for g in np.linspace(axis["start"], axis["stop"], axis["points"]):
            params = ModelParams("QRM-frequency", g=float(g))
            spec = metrology.ProtocolSpec(
                Hc=params.preparation(), Htheta=params.encoding(),
                t_c=math.pi / math.sqrt(params.published_delta()),
                t_theta=fig3b["t_theta"], alpha=alpha, theta0=fig3b["theta0"])
            signs.add(quadrature_stats(metrology.protocol_state(spec))[0] > 0.0)
        assert len(signs) == 1, f"seed {seed}: <P> changes sign on the fig3b grid"


def test_traced_run_writes_the_same_bytes_as_an_untraced_run():
    work = run.ROOT / ".bench_build" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner("figure-suite", 7, work)
        plain_jobs, traced_jobs = runner.outputs("plain"), runner.outputs("traced")
        plain = runner.sample("run", plain_jobs, {"CANP_THREADS": "1"})
        traced = runner.sample("trace", traced_jobs, {"CANP_THREADS": "1"})
        assert plain["exits"] == traced["exits"] == [0] * len(runner.jobs)
        assert run.digest(plain_jobs) == run.digest(traced_jobs)
        assert len(run.digest(plain_jobs)) == len(runner.jobs)
        summary, counters = tracer.load(traced["spans"])
        assert summary["metrology.find_threshold"]["calls"] == 1
        assert counters["experiments.write_csv.bytes"] == sum(
            Path(j["out"]).stat().st_size for j in traced_jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_reference_check_flags_a_changed_value():
    ref = {"header": ["g", "R_tau"], "comments": [["lambda_star", 0.35]], "n_rows": 2,
           "rows": [[0, 0.2, 0.98], [1, 0.6, 1.02]]}
    work = run.ROOT / ".bench_build" / "selftest-reference"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "out.csv"
    head = "# canp x\n# lambda_star=0.35 bracket=(0.2,0.6)\ng,R_tau\n0.2,0.98\n"
    try:
        path.write_text(head + "0.6,1.0200000000000005\n", encoding="utf-8")  # last bits
        assert checks.compare_reference("lmg-threshold", path, ref).failures == []
        path.write_text(head + "0.6,1.0200001\n", encoding="utf-8")
        assert len(checks.compare_reference("lmg-threshold", path, ref).failures) == 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
