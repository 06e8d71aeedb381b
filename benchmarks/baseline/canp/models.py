"""Constructors for the concrete critical models and encoding generators.

Two critical preparations are shipped: the normal-phase effective
Hamiltonian of the quantum Rabi model (quadratic in the field mode after the
qubit has been adiabatically eliminated; critical at renormalized coupling
g = 1) and the low-excitation bosonization of the Lipkin-Meshkov-Glick
model (critical at λ = 1 for γ ≠ 1). Both are paired with either a
frequency encoding a†a or a momentum-displacement encoding (a + a†)/√2.

For each pair the module also records the published closed forms of the gap
parameter and the derived commutator operators; the algebra layer must
reproduce them exactly, and the tests enforce that.

Caveat for the LMG preset: the bosonization is valid only while the mode
occupation stays well below the collective spin size N. N does not appear
in the effective model, so the preset cannot enforce that condition; keep
probe amplitudes modest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, OutOfPhaseError
from .operators import QuadraticOperator

VARIANTS = ("QRM-frequency", "QRM-displacement", "LMG-frequency")


def qrm_effective(omega: float, g: float) -> QuadraticOperator:
    """Normal-phase effective Rabi Hamiltonian ω a†a − (ωg²/4)(a† + a)².

    Expanding (a† + a)² = a² + a†² + 2a†a + 1 gives coefficients
    c_n = ω(1 − g²/2), c_aa = c_adad = c_1 = −ωg²/4. The constant term is
    kept for bookkeeping (it only shifts the global phase); the qubit
    splitting constant is dropped since it carries a free parameter that
    affects no observable.
    """
    if not 0.0 <= g < 1.0:
        raise OutOfPhaseError(f"QRM normal phase requires 0 <= g < 1, got g={g}")
    quarter = -0.25 * omega * g * g
    return QuadraticOperator(
        c_n=omega * (1.0 - 0.5 * g * g),
        c_aa=quarter,
        c_adad=quarter,
        c_1=quarter,
    )


def lmg_effective(lam: float, gamma: float) -> QuadraticOperator:
    """Bosonized LMG Hamiltonian 2λ a†a + [γ(a† − a)² − (a + a†)²]/2.

    With (a† − a)² = a†² + a² − 2a†a − 1 the coefficients are
    c_n = 2λ − (γ + 1), c_aa = c_adad = (γ − 1)/2, c_1 = −(γ + 1)/2.
    """
    if (gamma - lam) * (1.0 - lam) <= 0.0:
        raise OutOfPhaseError(
            f"LMG normal phase requires (gamma − lambda)(1 − lambda) > 0, "
            f"got lambda={lam}, gamma={gamma}"
        )
    half = 0.5 * (gamma - 1.0)
    return QuadraticOperator(
        c_n=2.0 * lam - (gamma + 1.0),
        c_aa=half,
        c_adad=half,
        c_1=-0.5 * (gamma + 1.0),
    )


def encoding_frequency() -> QuadraticOperator:
    """Frequency encoding generator a†a."""
    return QuadraticOperator.number()


def encoding_displacement() -> QuadraticOperator:
    """Momentum-displacement encoding generator (a† + a)/√2 = X."""
    return QuadraticOperator.position()


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


def qrm_commutator_c(omega: float, g: float) -> QuadraticOperator:
    """(iωg²/2)(a†² − a²)."""
    w = 0.5j * omega * g * g
    return QuadraticOperator(c_adad=w, c_aa=-w)


def qrm_commutator_d(omega: float, g: float) -> QuadraticOperator:
    """g²ω²[(1 − g²/2)(a†² + a²) − g²(a†a + 1/2)]."""
    g2w2 = g * g * omega * omega
    quad = g2w2 * (1.0 - 0.5 * g * g)
    return QuadraticOperator(
        c_n=-g2w2 * g * g,
        c_aa=quad,
        c_adad=quad,
        c_1=-0.5 * g2w2 * g * g,
    )


def lmg_commutator_d(lam: float, gamma: float) -> QuadraticOperator:
    """2(γ − 1)[(1 + γ − 2λ)(a†² + a²) + (1 − γ)(2a†a + 1)]."""
    pre = 2.0 * (gamma - 1.0)
    quad = pre * (1.0 + gamma - 2.0 * lam)
    diag = pre * (1.0 - gamma)
    return QuadraticOperator(c_n=2.0 * diag, c_aa=quad, c_adad=quad, c_1=diag)


@dataclass(frozen=True)
class ModelParams:
    """Parameters selecting one of the shipped critical-model pairs."""

    variant: str
    omega: float = 1.0
    g: float | None = None
    lam: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.omega <= 0.0:
            raise ConfigError("omega must be positive")
        if self.variant.startswith("QRM"):
            if self.g is None:
                raise ConfigError(f"variant {self.variant} requires g")
        else:
            if self.lam is None or self.gamma is None:
                raise ConfigError("LMG variant requires lambda and gamma")

    def preparation(self) -> QuadraticOperator:
        if self.variant.startswith("QRM"):
            return qrm_effective(self.omega, self.g)
        return lmg_effective(self.lam, self.gamma)

    def encoding(self) -> QuadraticOperator:
        if self.variant == "QRM-displacement":
            return encoding_displacement()
        return encoding_frequency()

    def pair(self) -> tuple[QuadraticOperator, QuadraticOperator]:
        return self.preparation(), self.encoding()

    def published_delta(self) -> float:
        if self.variant == "QRM-frequency":
            return qrm_delta_frequency(self.omega, self.g)
        if self.variant == "QRM-displacement":
            return qrm_delta_displacement(self.omega, self.g)
        return lmg_delta(self.lam, self.gamma)

    def critical_time(self) -> float:
        """Preparation duration π/√Δ (half period of the commutator algebra)."""
        delta = self.published_delta()
        if delta <= 0.0:
            raise OutOfPhaseError("critical time undefined at or beyond the critical point")
        return math.pi / math.sqrt(delta)

    def replace(self, **changes) -> "ModelParams":
        fields = {
            "variant": self.variant,
            "omega": self.omega,
            "g": self.g,
            "lam": self.lam,
            "gamma": self.gamma,
        }
        fields.update(changes)
        return ModelParams(**fields)

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
        known = {"variant", "omega", "g", "lambda", "gamma"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown model fields: {sorted(unknown)}")
        if "variant" not in obj:
            raise ConfigError("model config requires a variant")
        return cls(
            variant=obj["variant"],
            omega=float(obj.get("omega", 1.0)),
            g=None if obj.get("g") is None else float(obj["g"]),
            lam=None if obj.get("lambda") is None else float(obj["lambda"]),
            gamma=None if obj.get("gamma") is None else float(obj["gamma"]),
        )
