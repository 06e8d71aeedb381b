"""Constructors for the concrete critical models and encoding generators.

Two critical preparations are shipped: the normal-phase effective
Hamiltonian of the quantum Rabi model (quadratic in the field mode after the
qubit has been adiabatically eliminated; critical at renormalized coupling
g = 1) and the low-excitation bosonization of the Lipkin-Meshkov-Glick
model (critical at λ = 1 for γ ≠ 1). Both are paired with either a
frequency encoding a†a or a momentum-displacement encoding (a + a†)/√2.

Every Hamiltonian is built straight from its parameters as a real
quadrature form :class:`canp.operators.Quadratic` (G, v, c0), with
r = (X, P). Near the critical point the factored entries (ω(1 − g)(1 + g),
−2(1 − λ)) stay within a few roundings of their exact values, where
ω − ωg² or a sum of ladder coefficients would cancel.

For each pair the module also records the published closed forms of the gap
parameter and of the derived commutator operators, converted from the
paper's ladder notation to (G, v, c0) with a†² + a² = X² − P²,
i(a†² − a²) = XP + PX and a†a + ½ = ½(X² + P²). They are regression data
only: the runtime takes Δ, C and D from
:func:`canp.operators.derive_critical_structure`, and `validate`'s
`algebraic_criterion` and `operator_constants` checks and the tests compare
the derived values against these forms.

Caveat for the LMG preset: the bosonization is valid only while the mode
occupation stays well below the collective spin size N. N does not appear
in the effective model, so the preset cannot enforce that condition; keep
probe amplitudes modest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError, OutOfPhaseError
from .operators import Quadratic

VARIANTS = ("QRM-frequency", "QRM-displacement", "LMG-frequency")


def config_number(obj) -> float:
    """A config value as a finite float; a boolean (JSON true is not 1) or a string is an error."""
    if isinstance(obj, (bool, str)):
        raise TypeError(f"expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(str(exc)) from exc
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {obj!r}")
    return value


def config_object(obj, parsers: dict, what: str, required=()) -> dict:
    """The keys of one config object, each parsed by its entry in `parsers`.

    A non-object, a key `parsers` lacks, a missing `required` key or a value
    its parser rejects (TypeError or ValueError) is a ConfigError naming
    `what`, the key and the value. An absent key is left out of the result.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} requires {missing}")
    parsed = {}
    for key, parse in parsers.items():
        if key in obj:
            try:
                parsed[key] = parse(obj[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {what} {key} {obj[key]!r}: {exc}") from exc
    return parsed


def qrm_effective(omega: float, g: float) -> Quadratic:
    """Normal-phase effective Rabi Hamiltonian ω a†a − (ωg²/4)(a† + a)².

    With a†a = ½(X² + P²) − ½ and (a† + a)² = 2X² this is
    ½[ω(1 − g)(1 + g) X² + ω P²] − ω/2. The constant term is kept for
    bookkeeping (it only shifts the global phase); the qubit splitting
    constant is dropped since it carries a free parameter that affects no
    observable.
    """
    if not 0.0 <= g < 1.0:
        raise OutOfPhaseError(f"QRM normal phase requires 0 <= g < 1, got g={g}")
    return Quadratic(gxx=omega * (1.0 - g) * (1.0 + g), gpp=omega, c0=-0.5 * omega)


def lmg_effective(lam: float, gamma: float) -> Quadratic:
    """Bosonized LMG Hamiltonian 2λ a†a + [γ(a† − a)² − (a + a†)²]/2.

    With (a† − a)² = −2P² and (a + a†)² = 2X² this is
    ½[−2(1 − λ) X² − 2(γ − λ) P²] − λ.
    """
    if (gamma - lam) * (1.0 - lam) <= 0.0:
        raise OutOfPhaseError(
            f"LMG normal phase requires (gamma − lambda)(1 − lambda) > 0, "
            f"got lambda={lam}, gamma={gamma}"
        )
    return Quadratic(gxx=-2.0 * (1.0 - lam), gpp=-2.0 * (gamma - lam), c0=-lam)


def encoding_frequency() -> Quadratic:
    """Frequency encoding generator a†a = ½(X² + P²) − ½."""
    return Quadratic(gxx=1.0, gpp=1.0, c0=-0.5)


def encoding_displacement() -> Quadratic:
    """Momentum-displacement encoding generator (a† + a)/√2 = X."""
    return Quadratic(vx=1.0)


# Published closed forms, kept as regression constants for the algebra layer.


def qrm_delta_frequency(omega: float, g: float) -> float:
    """Gap parameter 4ω²(1 − g²) of the (QRM, a†a) pair."""
    return 4.0 * omega * omega * (1.0 - g * g)


def qrm_delta_displacement(omega: float, g: float) -> float:
    """Gap parameter ω²(1 − g²) of the (QRM, X) pair."""
    return omega * omega * (1.0 - g * g)


def lmg_delta(lam: float, gamma: float) -> float:
    """Gap parameter 16(γ − λ)(1 − λ) of the (LMG, a†a) pair."""
    return 16.0 * (gamma - lam) * (1.0 - lam)


def qrm_commutator_c(omega: float, g: float) -> Quadratic:
    """(iωg²/2)(a†² − a²) = (ωg²/2)(XP + PX)."""
    return Quadratic(gxp=omega * g * g)


def qrm_commutator_d(omega: float, g: float) -> Quadratic:
    """g²ω²[(1 − g²/2)(a†² + a²) − g²(a†a + 1/2)] = g²ω²[(1 − g²) X² − P²]."""
    g2w2 = g * g * omega * omega
    return Quadratic(gxx=2.0 * g2w2 * (1.0 - g) * (1.0 + g), gpp=-2.0 * g2w2)


def lmg_commutator_d(lam: float, gamma: float) -> Quadratic:
    """2(γ − 1)[(1 + γ − 2λ)(a†² + a²) + (1 − γ)(2a†a + 1)]
    = 4(γ − 1)[(1 − λ) X² − (γ − λ) P²]."""
    pre = 8.0 * (gamma - 1.0)
    return Quadratic(gxx=pre * (1.0 - lam), gpp=-pre * (gamma - lam))


class _ModelFields(NamedTuple):
    variant: str
    omega: float = 1.0
    g: float | None = None
    lam: float | None = None
    gamma: float | None = None


class ModelParams(_ModelFields):
    """Parameters selecting one of the shipped critical-model pairs.

    An immutable named tuple that checks the variant and its fields however
    it is built: the constructor, ``_make`` and ``_replace`` (the last two
    would otherwise skip ``__new__``).
    """

    __slots__ = ()

    def __new__(cls, variant: str, omega: float = 1.0, g: float | None = None,
                lam: float | None = None, gamma: float | None = None) -> "ModelParams":
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if omega <= 0.0:
            raise ConfigError("omega must be positive")
        if variant.startswith("QRM"):
            if g is None:
                raise ConfigError(f"variant {variant} requires g")
            if lam is not None or gamma is not None:
                raise ConfigError(f"variant {variant} has no lambda or gamma")
        else:
            if lam is None or gamma is None:
                raise ConfigError("LMG variant requires lambda and gamma")
            if g is not None:
                raise ConfigError(f"variant {variant} has no g")
        return super().__new__(cls, variant, omega, g, lam, gamma)

    @classmethod
    def _make(cls, iterable) -> "ModelParams":
        return cls(*iterable)

    def preparation(self) -> Quadratic:
        if self.variant.startswith("QRM"):
            return qrm_effective(self.omega, self.g)
        return lmg_effective(self.lam, self.gamma)

    def encoding(self) -> Quadratic:
        if self.variant == "QRM-displacement":
            return encoding_displacement()
        return encoding_frequency()

    def pair(self) -> tuple[Quadratic, Quadratic]:
        return self.preparation(), self.encoding()

    def published_delta(self) -> float:
        if self.variant == "QRM-frequency":
            return qrm_delta_frequency(self.omega, self.g)
        if self.variant == "QRM-displacement":
            return qrm_delta_displacement(self.omega, self.g)
        return lmg_delta(self.lam, self.gamma)

    def to_dict(self) -> dict:
        out: dict = {"variant": self.variant, "omega": self.omega}
        if self.g is not None:
            out["g"] = self.g
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.gamma is not None:
            out["gamma"] = self.gamma
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelParams":
        fields = config_object(obj, _MODEL_PARSERS, "model", required=("variant",))
        return cls(lam=fields.pop("lambda", None), **fields)


def _optional_number(obj) -> float | None:
    return None if obj is None else config_number(obj)


# The model keys; ModelParams itself checks the variant and its fields.
_MODEL_PARSERS = {"variant": lambda obj: obj, "omega": config_number,
                  "g": _optional_number, "lambda": _optional_number, "gamma": _optional_number}
