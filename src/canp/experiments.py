"""Sweep drivers that generate the figure data and validation reports.

Each experiment maps a JSON run configuration onto a deterministic CSV (or a
JSON report for `validate`). A sweep is a single-process array evaluation:
each runner builds one :class:`canp.metrology.Protocol` per model value and
evaluates that value's whole time grid in closed form, and `validate` runs
its number-basis oracle in the same process. Every field of a configuration
can change the data except the output path; a malformed or unknown field is
a ConfigError. Every CSV starts with a comment line carrying the tool
version and a hash of the resolved configuration without its output path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import CommutingPairError, ConfigError, OutOfPhaseError
from .metrology import Protocol, bisect, find_threshold
# Unused here; benchmarks/selftest.py and tests/test_benchmark_contract.py assert the binding.
from .metrology import enhancement_ratio  # noqa: F401
from .models import ModelParams, config_number

EXPERIMENTS = (
    "fig2a",
    "fig2b",
    "fig2b-inset",
    "fig3a",
    "fig3b",
    "lmg-threshold",
    "displacement",
    "validate",
)

# The g values fig2b and fig3a plot when the config lists none.
_DEFAULT_G_VALUES = {"fig2b": (0.80, 0.90, 0.96, 0.98), "fig3a": (0.90, 0.95, 0.98)}


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    model: ModelParams
    sweep: tuple[Axis, ...]
    t_theta: float = 12.0
    alpha: complex = 0.3 + 1.0j
    theta0: float = 0.0
    g_values: tuple[float, ...] = ()
    bracket: tuple[float, float] | None = None
    out: str = "out.csv"
    oracle: bool = False

    def axis(self, name: str) -> Axis:
        for ax in self.sweep:
            if ax.name == name:
                return ax
        raise ConfigError(f"experiment {self.experiment} requires sweep axis {name!r}")

    def hash_dict(self) -> dict:
        """Everything that can affect computed values (all but out)."""
        return {
            "experiment": self.experiment,
            "model": self.model.to_dict(),
            "sweep": [
                {"name": a.name, "start": a.start, "stop": a.stop, "points": a.points}
                for a in self.sweep
            ],
            "t_theta": self.t_theta,
            "alpha": {"re": self.alpha.real, "im": self.alpha.imag},
            "theta0": self.theta0,
            "g_values": list(self.g_values),
            "bracket": None if self.bracket is None else list(self.bracket),
            "oracle": self.oracle,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.hash_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_alpha(obj) -> complex:
    if isinstance(obj, dict):
        return complex(config_number(obj.get("re", 0.0)), config_number(obj.get("im", 0.0)))
    if isinstance(obj, (int, float)):
        return complex(config_number(obj))
    raise ConfigError(f"alpha must be a number or {{re, im}} object, got {obj!r}")


def _parse_bracket(obj) -> tuple[float, float] | None:
    if obj is None:
        return None
    lo, hi = obj
    lo, hi = config_number(lo), config_number(hi)
    if not lo < hi:
        raise ValueError("needs lo < hi")
    return lo, hi


def _parse_duration(obj) -> float:
    value = config_number(obj)
    if value <= 0.0:
        raise ValueError("must be positive")
    return value


def _parse_count(obj) -> int:
    value = config_number(obj)
    if value != int(value):
        raise ValueError(f"expected an integer, got {obj!r}")
    return int(value)


def _parse_flag(obj) -> bool:
    if not isinstance(obj, bool):
        raise TypeError("expected true or false")
    return obj


# Optional RunConfig fields and their parsers; an absent field keeps the
# RunConfig default.
_FIELD_PARSERS = {
    "t_theta": _parse_duration,
    "alpha": _parse_alpha,
    "theta0": config_number,
    "g_values": lambda obj: tuple(config_number(g) for g in obj),
    "bracket": _parse_bracket,
    "out": str,
    "oracle": _parse_flag,
}


def _parse_sweep(obj) -> tuple[Axis, ...]:
    if not isinstance(obj, dict):
        raise ConfigError(f"sweep must be an object of named axes, got {obj!r}")
    axes = []
    for name, ax in obj.items():
        try:
            axes.append(Axis(name=name, start=config_number(ax["start"]),
                             stop=config_number(ax["stop"]), points=_parse_count(ax["points"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep axis {name!r}: {exc}") from exc
    return tuple(axes)


def config_from_dict(obj: dict) -> RunConfig:
    unknown = set(obj) - {"experiment", "model", "sweep", *_FIELD_PARSERS}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    experiment = obj.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    if "model" not in obj:
        raise ConfigError("config requires a model section")
    try:
        model = ModelParams.from_dict(obj["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    fields = {}
    for name, parse in _FIELD_PARSERS.items():
        if name not in obj:
            continue
        try:
            fields[name] = parse(obj[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name} {obj[name]!r}: {exc}") from exc
    cfg = RunConfig(experiment=experiment, model=model,
                    sweep=_parse_sweep(obj.get("sweep", {})), **fields)
    _validate_sweep(cfg)
    return cfg


def _model_values(cfg: RunConfig) -> list[ModelParams]:
    """The model values a run reads: the model, or copies with g or λ moved to
    the g_values, g or lambda axis values or bracket ends the experiment reads."""
    model, axes = cfg.model, {ax.name: ax.values().tolist() for ax in cfg.sweep}
    if cfg.experiment in _DEFAULT_G_VALUES:
        return [model.replace(g=g) for g in cfg.g_values or _DEFAULT_G_VALUES[cfg.experiment]]
    if cfg.experiment in ("fig2b-inset", "fig3b", "displacement"):
        return [model.replace(g=g) for g in axes.get("g", ())]
    if cfg.experiment == "lmg-threshold":
        return [model.replace(lam=v) for v in [*axes.get("lambda", ()), *(cfg.bracket or ())]]
    return [model] if cfg.experiment == "fig2a" else []


def _validate_sweep(cfg: RunConfig) -> None:
    """Time axes must be ordered, and every model value the run reads must have
    its variant's fields (checked on building it) and obey its phase rule."""
    for ax in cfg.sweep:
        if ax.points < 2:
            raise ConfigError(f"axis {ax.name}: points must be >= 2")
        if ax.name == "sqrtDelta_tc":
            if ax.start < 0.0 or ax.stop < ax.start:
                raise ConfigError("sqrtDelta_tc sweep must be nonnegative and increasing")
        elif ax.name == "t_theta":
            if ax.start <= 0.0 or ax.stop <= 0.0:
                raise ConfigError("t_theta sweep must stay positive")
    if cfg.experiment == "displacement" and cfg.model.variant != "QRM-displacement":
        raise ConfigError(f"displacement needs variant QRM-displacement, got {cfg.model.variant}")
    for params in _model_values(cfg):
        try:
            params.preparation()
        except OutOfPhaseError as exc:
            raise ConfigError(str(exc)) from exc


def apply_overrides(obj: dict, overrides: dict[str, str]) -> dict:
    """Apply dotted-path command-line overrides onto a config dict.

    Values are parsed as JSON where possible (numbers, booleans, lists) and
    fall back to plain strings, so --model.g=0.9 and --out=run.csv both work.
    """
    out = json.loads(json.dumps(obj))
    for dotted, raw in overrides.items():
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = dotted.split(".")
        for key in parts[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {dotted}: {key} is not an object")
        node[parts[-1]] = value
    return out


def load_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        obj = apply_overrides(obj, overrides)
    return config_from_dict(obj)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, cfg: RunConfig, columns: tuple[str, ...], rows: list[tuple],
              extra_comments: tuple[str, ...] = ()) -> None:
    lines = [f"# canp {__version__} experiment={cfg.experiment} config_sha256={cfg.sha256()}"]
    lines.extend(f"# {comment}" for comment in extra_comments)
    lines.append(",".join(columns))
    # Rows hold mostly Python floats (from ndarray.tolist()), for which
    # _fmt would return exactly repr(v).
    lines.extend(
        ",".join(repr(v) if type(v) is float else _fmt(v) for v in row) for row in rows
    )
    _write(path, "\n".join(lines) + "\n")


def _write(path: str, text: str) -> None:
    """Write an output file, creating its directory if needed.

    A path that cannot be written is a ConfigError, as an unreadable config is.
    """
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _prepared(cfg: RunConfig, params: ModelParams, sqrt_delta_tc):
    """The protocol of one model value and its preparation time(s) at √Δ·t_c.

    A commuting pair (QRM-frequency at g = 0, LMG at γ = 1) has no √Δ, so a
    run that places t_c by √Δ·t_c cannot use it: that is a ConfigError
    naming the model value.
    """
    protocol = Protocol(params.preparation(), params.encoding(), cfg.alpha)
    try:
        return protocol, protocol.preparation_time(sqrt_delta_tc)
    except CommutingPairError as exc:
        value = ", ".join(f"{k}={v}" for k, v in params.to_dict().items())
        raise ConfigError(f"model {value}: {exc}") from exc


def _critical_ratio(cfg: RunConfig, params: ModelParams) -> float:
    """R of one model value at the critical time π/√Δ."""
    protocol, t_c = _prepared(cfg, params, math.pi)
    return float(protocol.ratio(t_c, cfg.t_theta, cfg.theta0))


def _rows(*columns) -> list[tuple]:
    """Broadcast the columns against each other and zip them into CSV rows."""
    return list(zip(*(np.ravel(c).tolist() for c in np.broadcast_arrays(*columns))))


def run_fig2a(cfg: RunConfig) -> list[tuple]:
    sdtc = cfg.axis("sqrtDelta_tc").values()[:, None]
    tth = cfg.axis("t_theta").values()[None, :]
    protocol, t_c = _prepared(cfg, cfg.model, sdtc)
    ratio = protocol.ratio(t_c, tth, cfg.theta0)
    rows = _rows(sdtc, tth, ratio, ratio > 1.0)
    write_csv(cfg.out, cfg, ("sqrtDelta_tc", "t_theta", "R", "enhanced"), rows)
    return rows


def run_fig2b(cfg: RunConfig) -> list[tuple]:
    sdtc = cfg.axis("sqrtDelta_tc").values()
    rows = []
    for params in _model_values(cfg):
        protocol, t_c = _prepared(cfg, params, sdtc)
        rows += _rows(params.g, sdtc, protocol.ratio(t_c, cfg.t_theta, cfg.theta0))
    write_csv(cfg.out, cfg, ("g", "sqrtDelta_tc", "R"), rows)
    return rows


def run_fig2b_inset(cfg: RunConfig) -> list[tuple]:
    rows = [(g, _critical_ratio(cfg, cfg.model.replace(g=g)))
            for g in cfg.axis("g").values().tolist()]
    write_csv(cfg.out, cfg, ("g", "R_tau"), rows)
    return rows


def run_fig3a(cfg: RunConfig) -> list[tuple]:
    sdtc = cfg.axis("sqrtDelta_tc").values()
    rows = []
    for params in _model_values(cfg):
        protocol, t_c = _prepared(cfg, params, sdtc)
        rows += _rows(params.g, sdtc, protocol.skew(t_c), protocol.qfi(t_c, cfg.t_theta))
    write_csv(cfg.out, cfg, ("g", "sqrtDelta_tc", "S", "F"), rows)
    return rows


def _mean_p_at(cfg: RunConfig, g: float) -> float:
    protocol, t_c = _prepared(cfg, cfg.model.replace(g=g), math.pi)
    return float(protocol.state(t_c, cfg.t_theta, cfg.theta0).mp)


def _zero_crossings(cfg: RunConfig, grid: np.ndarray, values: list[float]) -> list[float]:
    """Sign changes of ⟨P⟩ versus g, each bisected down to adjacent floats."""
    crossings = []
    for lo, hi, f_lo, f_hi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if f_lo == 0.0:
            crossings.append(float(lo))
        elif f_lo * f_hi < 0.0:
            crossings.append(bisect(lambda g: _mean_p_at(cfg, g), float(lo), float(hi), f_lo, 0.0))
    if values and values[-1] == 0.0:
        crossings.append(float(grid[-1]))
    return crossings


def run_fig3b(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.axis("g").values()
    rows = []
    for g in g_values.tolist():
        protocol, t_c = _prepared(cfg, cfg.model.replace(g=g), math.pi)
        final = protocol.state(t_c, cfg.t_theta, cfg.theta0)
        cfi = float(protocol._cfi_homodyne(final, cfg.t_theta))
        qfi = float(protocol.qfi(t_c, cfg.t_theta))
        rows.append((g, float(final.mp), cfi, qfi, cfi / qfi))
    crossings = _zero_crossings(cfg, g_values, [row[1] for row in rows])
    if crossings:
        comments = tuple(f"meanP_zero_crossing g={c!r}" for c in crossings)
    else:
        comments = ("meanP_zero_crossings none (curve is sign-definite on this grid)",)
    write_csv(cfg.out, cfg, ("g", "meanP", "cfi", "qfi", "cfi_over_qfi"), rows, comments)
    return rows


def run_lmg_threshold(cfg: RunConfig) -> list[tuple]:
    lam_axis = cfg.axis("lambda").values()
    rows = [(lam, _critical_ratio(cfg, cfg.model.replace(lam=lam)))
            for lam in lam_axis.tolist()]
    bracket = cfg.bracket or (float(lam_axis.min()), float(lam_axis.max()))
    try:
        lam_star = find_threshold(
            "LMG-frequency", cfg.t_theta, cfg.alpha, bracket,
            omega=cfg.model.omega, gamma=cfg.model.gamma, theta0=cfg.theta0,
        )
    except OutOfPhaseError as exc:
        raise ConfigError(f"bracket {bracket} leaves the normal phase: {exc}") from exc
    comments = (f"lambda_star={lam_star!r} bracket=({bracket[0]!r},{bracket[1]!r})",)
    write_csv(cfg.out, cfg, ("lambda", "R_tau"), rows, comments)
    return rows


def run_displacement(cfg: RunConfig) -> list[tuple]:
    rows = []
    for g in cfg.axis("g").values().tolist():
        # Quarter period: the point where the asymptotic sin² formula is exact.
        protocol, t_c = _prepared(cfg, cfg.model.replace(g=g), 0.5 * math.pi)
        formula = float(protocol.qfi_displacement(t_c, cfg.t_theta))
        exact = float(protocol.qfi(t_c, cfg.t_theta))
        ratio = float(protocol.ratio(t_c, cfg.t_theta, cfg.theta0))
        rows.append((g, protocol.structure.Delta, formula, exact, ratio))
    write_csv(cfg.out, cfg, ("g", "delta_p", "qfi_formula", "qfi_exact", "R"), rows)
    return rows


def run_validate(cfg: RunConfig) -> dict:
    from .validate import run_checks  # deferred: validate pulls in the fock oracle

    if not cfg.oracle:
        raise ConfigError("the validate experiment requires oracle=true")
    report = run_checks()
    report["version"] = __version__
    report["config_sha256"] = cfg.sha256()
    _write(cfg.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


RUNNERS = {
    "fig2a": run_fig2a,
    "fig2b": run_fig2b,
    "fig2b-inset": run_fig2b_inset,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "lmg-threshold": run_lmg_threshold,
    "displacement": run_displacement,
    "validate": run_validate,
}


def run_experiment(cfg: RunConfig):
    return RUNNERS[cfg.experiment](cfg)
