from collections import Counter

import pytest

from canp import fock, metrology


@pytest.fixture
def propagator_builds(monkeypatch):
    """Count Propagator constructions per (H, dim), starting from an empty memo."""
    counts: Counter = Counter()
    original = fock.Propagator.__init__

    def counting(self, hamiltonian, dim):
        counts[(hamiltonian, dim)] += 1
        original(self, hamiltonian, dim)

    fock.propagator.cache_clear()
    monkeypatch.setattr(fock.Propagator, "__init__", counting)
    yield counts
    fock.propagator.cache_clear()


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
