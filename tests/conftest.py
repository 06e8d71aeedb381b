from collections import Counter
from pathlib import Path

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
    """Record each derive_critical_structure call made through canp.metrology."""
    calls: list = []
    original = metrology.derive_critical_structure

    def counting(hc, htheta):
        calls.append((hc, htheta))
        return original(hc, htheta)

    monkeypatch.setattr(metrology, "derive_critical_structure", counting)
    return calls


@pytest.fixture
def child_env():
    """Environment builder for a child interpreter that imports canp from this checkout.

    The child writes no bytecode, so a test run leaves no ``__pycache__``
    in the source tree; ``child_env(NAME=value)`` adds variables.
    """
    src = str(Path(fock.__file__).resolve().parents[1])
    return lambda **extra: {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", **extra}
