import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from canp import fock, metrology


@pytest.fixture
def propagator_builds(monkeypatch):
    """Count Propagator constructions per (H, dim)."""
    counts: Counter = Counter()
    original = fock.Propagator.__init__

    def counting(self, hamiltonian, dim):
        counts[(hamiltonian, dim)] += 1
        original(self, hamiltonian, dim)

    monkeypatch.setattr(fock.Propagator, "__init__", counting)
    return counts


@pytest.fixture
def structure_derivations(monkeypatch):
    """Record each derive_critical_structure call made through canp.metrology:
    its pair and how many pairs (model values) the call's stack covers."""
    calls: list = []
    original = metrology.derive_critical_structure

    def counting(hc, htheta):
        covered = np.prod(np.broadcast_shapes(*map(np.shape, (*hc, *htheta))), dtype=int)
        calls.append((hc, htheta, int(covered)))
        return original(hc, htheta)

    monkeypatch.setattr(metrology, "derive_critical_structure", counting)
    return calls


@pytest.fixture
def child_env():
    """Environment builder for a child interpreter that imports canp from this checkout.

    The child writes no bytecode, so a test run leaves no ``__pycache__``
    in the source tree; ``child_env(NAME=value)`` adds variables. Under the
    line tracer (``tests/linetrace``), the child is traced too.
    """
    env = {"PYTHONPATH": str(Path(fock.__file__).resolve().parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if "CANP_LINETRACE" in os.environ:
        env["PYTHONPATH"] = os.pathsep.join((str(Path(__file__).parent / "linetrace"),
                                             env["PYTHONPATH"]))
        env["CANP_LINETRACE"] = os.environ["CANP_LINETRACE"]
    return lambda **extra: {**env, **extra}
