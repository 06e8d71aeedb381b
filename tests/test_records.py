"""Every record the package defines is an immutable named tuple.

A record is a class whose instances only carry values: the model and its
forms, the states, the derived structure, the run configuration, the
experiment table's rows, a check's outcome and a number-basis state. Each
is a named tuple, and neither a field nor a new attribute can be set on
one after it is built. The only other classes are the three that evolve
or evaluate (`Flow`, `Propagator`, `Protocol`) and the errors.
"""

import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import canp
from canp import ModelParams, fock
from canp.experiments import TABLE, load_config
from canp.gaussian import coherent
from canp.metrology import ProtocolSpec, evaluate_report
from canp.operators import derive_critical_structure
from canp.validate import CheckResult

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ALPHA = 0.3 + 1.0j


def records() -> dict:
    """One instance of each record class, by class name."""
    params = ModelParams("QRM-frequency", g=0.9)
    hc, htheta = params.pair()
    spec = ProtocolSpec(hc, htheta, math.pi, 12.0, ALPHA)
    cfg = load_config(str(CONFIG_DIR / "fig3b.json"), {})
    return {
        "Quadratic": hc,
        "GaussianState": coherent(ALPHA),
        "CriticalStructure": derive_critical_structure(hc, htheta),
        "ModelParams": params,
        "ProtocolSpec": spec,
        "MetrologyReport": evaluate_report(spec),
        "RunConfig": cfg,
        "Axis": cfg.sweep[0],
        "Experiment": TABLE["fig3b"],
        "CheckResult": CheckResult("thresholds", True, {}, {}),
        "FockState": fock.coherent_fock(ALPHA, 60),
    }


RECORDS = records()


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_named_tuple_that_refuses_assignment(name):
    record = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    assert issubclass(cls, tuple) and cls._fields
    assert not hasattr(record, "__dict__")
    for attr in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_every_other_class_evolves_or_evaluates():
    # A new class is a record, and so listed above, or one of these three.
    defined = set()
    for info in pkgutil.iter_modules(canp.__path__):
        module = importlib.import_module(f"canp.{info.name}")
        defined |= {name for name, obj in vars(module).items()
                    if inspect.isclass(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not issubclass(obj, BaseException)}
    assert defined == set(RECORDS) | {"Flow", "Propagator", "Protocol"}
