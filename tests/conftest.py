from collections import Counter

import pytest

from canp import fock


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
