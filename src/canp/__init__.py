"""Criticality-assisted noncommutative preparation (CANP) metrology toolkit.

A probe prepared by evolution under a critical quadratic Hamiltonian and
then encoded by a noncommuting generator picks up a large parameter
sensitivity. The library API is :class:`Protocol`, built from a
:class:`ModelParams` preset; every other name is imported from its module
(``canp.operators``, ``canp.gaussian``, ``canp.fock``, ``canp.validate``, ...).
"""

from ._version import __version__
from .metrology import Protocol
from .models import ModelParams

__all__ = ["ModelParams", "Protocol", "__version__"]
