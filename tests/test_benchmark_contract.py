"""The names the benchmark harness in benchmarks/ calls exist and run.

The harness reports a vanished name as 0 µs under "missing" instead of
failing, so this suite is where a rename or removal shows up first.
"""

import importlib.util
import inspect
from pathlib import Path

from canp import experiments, fock, gaussian, metrology
from canp.models import ModelParams

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_percall_name_runs(tmp_path):
    percall = load_benchmark_module("percall")
    table = percall.calls(str(tmp_path))
    for name in percall.NAMES:
        table[name]()


def test_selftest_and_checks_bindings():
    # selftest.py patches metrology.enhancement_ratio and expects the
    # experiments module to see it through this shared binding.
    assert experiments.enhancement_ratio is metrology.enhancement_ratio
    assert callable(gaussian.quadrature_stats)
    assert callable(ModelParams.published_delta)
    # checks.py rebuilds the model and reads the oracle through these.
    assert callable(ModelParams.from_dict)
    for name in ("coherent_fock", "mean_photon_fock", "variance_fock", "fock_moments"):
        assert callable(getattr(fock, name)), name
    assert isinstance(fock.MAX_DIM, int)
    # percall.py and selftest.py evaluate single points through the spec wrappers.
    for name in ("protocol_state", "cfi_homodyne", "evaluate_report"):
        assert callable(getattr(metrology, name)), name
    # Both build a spec with these six keywords.
    params = ModelParams("QRM-frequency", g=0.5)
    spec = metrology.ProtocolSpec(Hc=params.preparation(), Htheta=params.encoding(), t_c=1.0,
                                  t_theta=12.0, alpha=0.3 + 1.0j, theta0=0.1)
    assert (spec.Hc, spec.Htheta, spec.t_c, spec.t_theta, spec.alpha, spec.theta0) == (
        params.preparation(), params.encoding(), 1.0, 12.0, 0.3 + 1.0j, 0.1)
    # selftest.py calls find_threshold(variant, t_theta, alpha, bracket, gamma=...).
    assert list(inspect.signature(metrology.find_threshold).parameters)[:6] == [
        "family", "t_theta", "alpha", "bracket", "omega", "gamma"]
    # tracer.py counts the bytes write_csv writes by reading its first argument, the path.
    assert list(inspect.signature(experiments.write_csv).parameters)[0] == "path"
    # checks.py pins the oracle's truncation through these two keywords.
    for oracle in (fock.converged_protocol_state, fock.qfi_numeric):
        assert {"start_dim", "max_dim"} <= set(inspect.signature(oracle).parameters)


def test_every_workload_config_parses():
    # A config the benchmark builds and the package refuses would show up
    # only as a failed benchmark run; here it fails the suite (seeds 0-29).
    workloads = load_benchmark_module("workloads")
    for workload in workloads.WORKLOADS:
        for seed in range(30):
            for experiment, obj in workloads.make(workload, seed):
                assert experiments.config_from_dict(obj).experiment == experiment
