"""The names the benchmark harness in benchmarks/ calls exist and run.

The harness reports a vanished name as 0 µs under "missing" instead of
failing, so this suite is where a rename or removal shows up first.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from canp import experiments, fock, gaussian, metrology
from canp.models import ModelParams

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_percall():
    spec = importlib.util.spec_from_file_location("percall", BENCHMARKS / "percall.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_percall_name_runs(tmp_path):
    percall = load_percall()
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
    assert {"Hc", "Htheta", "t_c", "t_theta", "alpha", "theta0"} <= {
        f.name for f in dataclasses.fields(metrology.ProtocolSpec)}
    # selftest.py calls find_threshold(variant, t_theta, alpha, bracket, gamma=...).
    assert list(inspect.signature(metrology.find_threshold).parameters)[:6] == [
        "family", "t_theta", "alpha", "bracket", "omega", "gamma"]
    # checks.py pins the oracle's truncation through these two keywords.
    for oracle in (fock.converged_protocol_state, fock.qfi_numeric):
        assert {"start_dim", "max_dim"} <= set(inspect.signature(oracle).parameters)
