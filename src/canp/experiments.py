"""Sweep drivers that generate the figure data and validation reports.

Each experiment maps a JSON run configuration onto a deterministic CSV (or a
JSON report for `validate`). A sweep is a single-process array evaluation:
each runner builds one :class:`canp.metrology.Protocol` per model value and
evaluates that value's whole time grid in closed form, and `validate` runs
its number-basis oracle in the same process. A malformed or unknown field
is a ConfigError. Every CSV starts with a comment line carrying the tool
version and a hash of the resolved configuration without its output path.
The hash covers every other field, also those that cannot change this
run's data: a field the experiment does not read, validate's model and
physics fields (its checks fix their own), and LMG's omega.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import (
    CommutingPairError, ConfigError, NoSignChangeError, OutOfPhaseError, VacuumProbeError,
)
from .metrology import Protocol, bisect, find_threshold
# Unused here; benchmarks/selftest.py and tests/test_benchmark_contract.py assert the binding.
from .metrology import enhancement_ratio  # noqa: F401
from .models import ModelParams, config_number, config_object

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
    sweep: tuple[Axis, ...] = ()
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

    def sha256(self) -> str:
        """Hash of every field but out, whether or not the experiment reads it."""
        hashed = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(self) if f.name != "out"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"), default=_jsonable)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _jsonable(obj):
    """The JSON form of a RunConfig field value json.dumps cannot serialise itself."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, ModelParams):
        return obj.to_dict()
    return dataclasses.asdict(obj)


def _parse_experiment(obj) -> str:
    if obj not in EXPERIMENTS:
        raise ValueError(f"expected one of {EXPERIMENTS}")
    return obj


def _parse_alpha(obj) -> complex:
    if isinstance(obj, dict):
        parts = config_object(obj, {"re": config_number, "im": config_number}, "alpha")
        return complex(parts.get("re", 0.0), parts.get("im", 0.0))
    if isinstance(obj, (int, float)):
        return complex(config_number(obj))
    raise TypeError("expected a number or {re, im} object")


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


def _parse_points(obj) -> int:
    value = config_number(obj)
    if value != int(value) or value < 2:
        raise ValueError(f"expected an integer >= 2, got {obj!r}")
    return int(value)


def _parse_flag(obj) -> bool:
    if not isinstance(obj, bool):
        raise TypeError("expected true or false")
    return obj


def _parse_out(obj) -> str:
    """An output path, rejected now if no write to it could succeed."""
    if not isinstance(obj, str):
        raise TypeError("expected a path string")
    path = os.path.abspath(obj)
    ancestor = os.path.dirname(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output {obj}: it is a directory")
    if not os.path.isdir(ancestor):
        raise ConfigError(f"cannot write output {obj}: {ancestor} is not a directory")
    return obj


_AXIS_PARSERS = {"start": config_number, "stop": config_number, "points": _parse_points}


def _parse_sweep(obj) -> tuple[Axis, ...]:
    if not isinstance(obj, dict):
        raise TypeError("expected an object of named axes")
    return tuple(
        Axis(name, **config_object(ax, _AXIS_PARSERS, f"sweep axis {name!r}",
                                   required=tuple(_AXIS_PARSERS)))
        for name, ax in obj.items()
    )


# The RunConfig fields and their parsers; an absent field keeps the
# RunConfig default.
_FIELD_PARSERS = {
    "experiment": _parse_experiment,
    "model": ModelParams.from_dict,
    "sweep": _parse_sweep,
    "t_theta": _parse_duration,
    "alpha": _parse_alpha,
    "theta0": config_number,
    "g_values": lambda obj: tuple(config_number(g) for g in obj),
    "bracket": _parse_bracket,
    "out": _parse_out,
    "oracle": _parse_flag,
}


def config_from_dict(obj: dict) -> RunConfig:
    cfg = RunConfig(**config_object(obj, _FIELD_PARSERS, "config",
                                    required=("experiment", "model")))
    _validate_sweep(cfg)
    return cfg


def _model_values(cfg: RunConfig) -> list[ModelParams]:
    """The model values a run's rows read: the model, or copies with g or λ
    moved to the g_values or to the g or lambda axis values. A missing axis
    gives none here; the run that needs it reports it (RunConfig.axis)."""
    model, axes = cfg.model, {ax.name: ax.values().tolist() for ax in cfg.sweep}
    if cfg.experiment in _DEFAULT_G_VALUES:
        return [model.replace(g=g) for g in cfg.g_values or _DEFAULT_G_VALUES[cfg.experiment]]
    if cfg.experiment in ("fig2b-inset", "fig3b", "displacement"):
        return [model.replace(g=g) for g in axes.get("g", ())]
    if cfg.experiment == "lmg-threshold":
        return [model.replace(lam=lam) for lam in axes.get("lambda", ())]
    return [model] if cfg.experiment == "fig2a" else []


def _validate_sweep(cfg: RunConfig) -> None:
    """Time axes must be ordered, and every model value the run reads must have
    its variant's fields (checked on building it) and obey its phase rule."""
    for ax in cfg.sweep:
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


def _column_text(column: tuple) -> list[str]:
    """The _fmt text of each cell of one column, formatting each distinct value once.

    Floats are keyed by the bits of their float64 value, since value keys
    would merge 0.0 with -0.0; a bool or int column of one type is keyed by
    value; a column of mixed types is formatted cell by cell.
    """
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return list(map(_fmt, column))
    kind = kinds.pop()
    if issubclass(kind, (float, np.floating)):
        bits = np.array(column, dtype=np.float64).view(np.int64).tolist()
        distinct = list(dict.fromkeys(bits))
        values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
        text = dict(zip(distinct, map(repr, values)))
        return list(map(text.__getitem__, bits))
    if issubclass(kind, (bool, int, np.bool_, np.integer)):
        text = {value: _fmt(value) for value in set(column)}
        return list(map(text.__getitem__, column))
    return list(map(_fmt, column))


def write_csv(path: str, cfg: RunConfig, columns: tuple[str, ...], rows: list[tuple],
              extra_comments: tuple[str, ...] = ()) -> None:
    """Write rows under a provenance header and the column names.

    Each cell is written as _fmt gives it: a float (Python or numpy) as its
    shortest round-trip repr, a bool as 0 or 1, an int in decimal. Every
    row must have one cell per column; a ragged table is a ValueError.
    """
    widths = set(map(len, rows))
    if widths - {len(columns)}:
        raise ValueError(f"every row must have {len(columns)} cells, one per column "
                         f"{columns}; got row widths {sorted(widths)}")
    lines = [f"# canp {__version__} experiment={cfg.experiment} config_sha256={cfg.sha256()}"]
    lines.extend(f"# {comment}" for comment in extra_comments)
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*map(_column_text, zip(*rows)))))
    _write(path, "\n".join(lines) + "\n")


def _write(path: str, text: str) -> None:
    """Write an output file, creating its directory if needed.

    A path that cannot be written is a ConfigError, as an unreadable config is.
    Reading the config already rejects a directory and a path under a file;
    this catches what only the write can find, such as a missing permission.
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
        raise _model_error(params, exc) from exc


def _model_error(params: ModelParams, exc: Exception) -> ConfigError:
    """A ConfigError naming the model value that raised exc."""
    value = ", ".join(f"{k}={v}" for k, v in params.to_dict().items())
    return ConfigError(f"model {value}: {exc}")


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
    cfg.axis("g")  # a missing axis is a ConfigError, not an empty table
    rows = [(params.g, _critical_ratio(cfg, params)) for params in _model_values(cfg)]
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
    for params in _model_values(cfg):
        protocol, t_c = _prepared(cfg, params, math.pi)
        final = protocol.state(t_c, cfg.t_theta, cfg.theta0)
        cfi = float(protocol._cfi_homodyne(final, cfg.t_theta))
        qfi = float(protocol.qfi(t_c, cfg.t_theta))
        rows.append((params.g, float(final.mp), cfi, qfi, cfi / qfi))
    crossings = _zero_crossings(cfg, g_values, [row[1] for row in rows])
    if crossings:
        comments = tuple(f"meanP_zero_crossing g={c!r}" for c in crossings)
    else:
        comments = ("meanP_zero_crossings none (curve is sign-definite on this grid)",)
    write_csv(cfg.out, cfg, ("g", "meanP", "cfi", "qfi", "cfi_over_qfi"), rows, comments)
    return rows


def run_lmg_threshold(cfg: RunConfig) -> list[tuple]:
    # The threshold comes first: a bracket it rejects stops the run before
    # the sweep, after at most its two end values. Config time does not
    # phase-check a given bracket; an end out of phase exits here.
    lam_axis = cfg.axis("lambda").values()
    bracket = cfg.bracket or (float(lam_axis.min()), float(lam_axis.max()))
    try:
        lam_star = find_threshold(
            "LMG-frequency", cfg.t_theta, cfg.alpha, bracket,
            omega=cfg.model.omega, gamma=cfg.model.gamma, theta0=cfg.theta0,
        )
    except CommutingPairError as exc:
        raise _model_error(cfg.model, exc) from exc
    except OutOfPhaseError as exc:
        raise ConfigError(f"bracket {bracket} leaves the normal phase: {exc}") from exc
    except NoSignChangeError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [(params.lam, _critical_ratio(cfg, params)) for params in _model_values(cfg)]
    comments = (f"lambda_star={lam_star!r} bracket=({bracket[0]!r},{bracket[1]!r})",)
    write_csv(cfg.out, cfg, ("lambda", "R_tau"), rows, comments)
    return rows


def run_displacement(cfg: RunConfig) -> list[tuple]:
    cfg.axis("g")  # a missing axis is a ConfigError, not an empty table
    rows = []
    for params in _model_values(cfg):
        # Quarter period: the point where the asymptotic sin² formula is exact.
        protocol, t_c = _prepared(cfg, params, 0.5 * math.pi)
        formula = float(protocol.qfi_displacement(t_c, cfg.t_theta))
        exact = float(protocol.qfi(t_c, cfg.t_theta))
        ratio = float(protocol.ratio(t_c, cfg.t_theta, cfg.theta0))
        rows.append((params.g, protocol.structure.Delta, formula, exact, ratio))
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
EXPERIMENTS = tuple(RUNNERS)


def run_experiment(cfg: RunConfig):
    """Run one experiment. A vacuum probe has no enhancement ratio, so a run
    that reads R at alpha = 0 is a ConfigError naming alpha."""
    try:
        return RUNNERS[cfg.experiment](cfg)
    except VacuumProbeError as exc:
        raise ConfigError(f"alpha={cfg.alpha}: {exc}") from exc
