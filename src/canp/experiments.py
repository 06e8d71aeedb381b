"""Sweep drivers that generate the figure data and validation reports.

Each experiment maps a JSON run configuration onto a deterministic CSV (or a
JSON report for `validate`); its row of :data:`TABLE` names its runner, the
grid inputs a config must name (and no others), its phase √Δ·t_c and its
columns. A CSV run hands its model values to :func:`canp.metrology.sweep`,
which builds one :class:`canp.metrology.Protocol` with the model value as the
leading axis of its arrays, places t_c at that phase and evaluates the row's
columns over every value's whole time grid in one closed-form call; `validate`
runs its number-basis oracle in the same process.
A malformed or unknown field is a ConfigError. A CSV runner hands the writer
the arrays it computed, before broadcasting, and returns the table written:
each column's values, one per row. Every CSV starts with a comment line
carrying the tool version and a hash of the resolved configuration without
its output path. The hash covers every other field, also those that cannot
change this run's data: the swept model field (g or lambda), the t_theta
field of fig2a (an axis there), fig3a's theta0, lmg-threshold's omega,
displacement's theta0 and alpha (its X encoding's QFI and baseline do not
depend on the amplitude), and validate's t_theta, theta0, alpha and model.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from typing import Callable, NamedTuple

try:
    # hashlib loads OpenSSL's libcrypto (about 3.5 MB resident) for one
    # digest; CPython's built-in SHA-256 gives the same one without it.
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

import numpy as np

from ._version import __version__
from .errors import CanpError, ConfigError, NonFiniteError
from .metrology import Protocol, find_threshold, require_bright_probe, sweep, zero_crossings
# Unused here; benchmarks/selftest.py and tests/test_benchmark_contract.py assert the binding.
from .metrology import enhancement_ratio  # noqa: F401
from .models import ModelParams, config_number, config_object

class Axis(NamedTuple):
    name: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        """The axis points; an axis too large to allocate is a ConfigError naming it."""
        try:
            return np.linspace(self.start, self.stop, self.points)
        except (MemoryError, ValueError):  # ValueError: more cells than numpy can index
            raise ConfigError(f"sweep axis {self.name!r} of {self.points} points "
                              f"does not fit in memory") from None


class RunConfig(NamedTuple):
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
        hashed = {**self._asdict(), "model": self.model.to_dict(),
                  "sweep": [ax._asdict() for ax in self.sweep],
                  "alpha": {"re": self.alpha.real, "im": self.alpha.imag}}
        del hashed["out"]
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return _sha256(canonical.encode("utf-8")).hexdigest()


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


def _parse_bracket(obj) -> tuple[float, float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise TypeError("expected [lo, hi]")
    lo, hi = map(config_number, obj)
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


def _parse_g_values(obj) -> tuple[float, ...]:
    values = tuple(config_number(g) for g in obj)
    if not values:
        raise ValueError("must list at least one g")
    return values


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
    "g_values": _parse_g_values,
    "bracket": _parse_bracket,
    "out": _parse_out,
    "oracle": _parse_flag,
}


def config_from_dict(obj: dict) -> RunConfig:
    cfg = RunConfig(**config_object(obj, _FIELD_PARSERS, "config",
                                    required=("experiment", "model")))
    _validate(cfg, obj)
    return cfg


def _model_values(cfg: RunConfig) -> tuple[str, np.ndarray, list[ModelParams]]:
    """The column of the model field a run sweeps (g or lambda, from its row),
    its values as the config gave them (the g_values, or the g or lambda axis),
    and the model at each value: a copy with that field moved there."""
    row = TABLE[cfg.experiment]
    if "g_values" in row.fields:
        name, values = "g", np.array(cfg.g_values)
    elif row.axes in (("g",), ("lambda",)):
        name, values = row.axes[0], cfg.axis(row.axes[0]).values()
    else:  # a row with columns (fig2a) reads the model alone; validate reads no model
        return "", np.empty(0), ([cfg.model] if row.columns else [])
    field = "lam" if name == "lambda" else "g"
    return name, values, [cfg.model._replace(**{field: value}) for value in values.tolist()]


def _validate(cfg: RunConfig, named: dict) -> None:
    """Time axes must be ordered; the config, whose keys are `named`, must name
    exactly the grid inputs of its experiment's TABLE row; and every model
    value the run reads must have its variant's fields (checked on building
    it) and obey its phase rule."""
    for ax in cfg.sweep:
        if ax.name == "sqrtDelta_tc":
            if ax.start < 0.0 or ax.stop < ax.start:
                raise ConfigError("sqrtDelta_tc sweep must be nonnegative and increasing")
        elif ax.name == "t_theta":
            if ax.start <= 0.0 or ax.stop <= 0.0:
                raise ConfigError("t_theta sweep must stay positive")
    row = TABLE[cfg.experiment]
    for name in row.axes:
        cfg.axis(name)  # a missing axis is a ConfigError naming it
    for field in row.fields:
        if field not in named:
            raise ConfigError(f"experiment {cfg.experiment} requires {field}")
    unread = [f"sweep axis {ax.name!r}" for ax in cfg.sweep if ax.name not in row.axes]
    unread += [key for key in ("g_values", "bracket") if key in named and key not in row.fields]
    if unread:
        raise ConfigError(f"experiment {cfg.experiment} does not read {unread[0]}")
    if cfg.experiment == "displacement" and cfg.model.variant != "QRM-displacement":
        raise ConfigError(f"displacement needs variant QRM-displacement, got {cfg.model.variant}")
    for params in _model_values(cfg)[2]:
        params.preparation()


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


_BOOL_TEXT = np.array(["0", "1"], dtype=object)


def _column_text(name: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool]:
    """The text of each cell of one column array, in the array's shape, and
    whether each cell is nan or inf: the repr of each float (a float32 value
    widens exactly), the decimal of each int, 0 or 1 for a bool. An array of
    any other dtype is a ValueError naming the column."""
    kind = values.dtype.kind
    if kind == "b":
        return _BOOL_TEXT[values.view(np.uint8)], False
    if kind not in "fiu":
        raise ValueError(f"column {name} is a {values.dtype} array; "
                         f"a column holds floats, ints or bools")
    text = list(map(repr, values.ravel().tolist()))
    bad = ~np.isfinite(values) if kind == "f" else False
    return np.array(text, dtype=object).reshape(values.shape), bad


def _column_array(name: str, cells: tuple) -> np.ndarray:
    """One column of a row table as an array of its cells' one dtype kind:
    floats, bools, or numpy ints of one signedness, so no cell changes. Mixed
    kinds, Python ints (numpy would widen 2**63 and -1 together to float) and
    any other cell are a ValueError naming the column."""
    types = set(map(type, cells))
    kinds = {"int" if t is int else np.dtype(t).kind for t in types}
    if len(kinds) > 1 or not kinds <= set("fbiu"):
        raise ValueError(f"column {name} holds {', '.join(sorted(t.__name__ for t in types))} "
                         f"cells; a row column holds only floats, only bools or only numpy ints")
    return np.array(cells)


def write_csv(path: str, cfg: RunConfig, columns: dict | tuple[str, ...],
              rows: list[tuple] | None = None,
              extra_comments: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Write a table under a provenance header and the column names, and return it.

    `columns` maps each column name to an array, and the arrays broadcast
    together (numpy rules) to the table's shape; its cells, in C order, are
    the rows. Or `columns` is a tuple of names and `rows` a list of row
    tuples, one cell per column, and each column becomes one array
    (:func:`_column_array`). A ragged table, arrays that do not broadcast
    together and a column that is not floats, ints or bools are ValueErrors.

    Each array's own cells are formatted once: a float as its shortest
    round-trip repr, a bool as 0 or 1, an int in decimal; the text is then
    broadcast. A nan or inf cell is a NonFiniteError naming the column and
    the cells of its first such row. Any error leaves nothing written. The
    table returned maps each column name to its written values, one per row.
    """
    names = tuple(columns)
    if rows is None:
        arrays = [np.asarray(a) for a in columns.values()]
    else:
        widths = set(map(len, rows))
        if widths - {len(names)}:
            raise ValueError(f"every row must have {len(names)} cells, one per column "
                             f"{names}; got row widths {sorted(widths)}")
        arrays = list(map(_column_array, names, zip(*rows))) or [np.empty(0)] * len(names)
    try:
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError:
        raise ValueError(f"columns {names} do not broadcast together: shapes "
                         f"{[a.shape for a in arrays]}") from None
    formatted = list(map(_column_text, names, arrays))
    texts = [np.broadcast_to(text, shape).ravel().tolist() for text, _ in formatted]
    for name, (_, bad) in zip(names, formatted):
        bad = np.broadcast_to(bad, shape)
        if bad.any():
            first = int(bad.argmax())
            cells = ", ".join(f"{c}={t[first]}" for c, t in zip(names, texts))
            raise NonFiniteError(f"experiment {cfg.experiment}: column {name} is nan or inf "
                                 f"in {np.count_nonzero(bad)} of {bad.size} rows, "
                                 f"first at {cells}")
    lines = [f"# canp {__version__} experiment={cfg.experiment} config_sha256={cfg.sha256()}"]
    lines.extend(f"# {comment}" for comment in extra_comments)
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*texts)))
    _write(path, "\n".join(lines) + "\n")
    return {name: np.broadcast_to(a, shape).ravel() for name, a in zip(names, arrays)}


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


def _sweep_table(cfg: RunConfig) -> dict[str, np.ndarray]:
    """A run's columns before broadcasting: the swept model value, if the row
    sweeps one, and its row's columns. On the sqrtDelta_tc axis they fill a
    (k, n, 1) block, whose trailing axis a row's columns may extend (fig2a's
    t_theta); otherwise they stand at the row's fixed phase √Δ·t_c."""
    row = TABLE[cfg.experiment]
    name, values, models = _model_values(cfg)
    if row.phase is None:
        phase = cfg.axis("sqrtDelta_tc").values()[:, None]
        values, lead = values[:, None, None], {"sqrtDelta_tc": phase}
    else:
        phase, lead = row.phase, {}
    swept = {name: values} if name else {}
    return {**swept, **lead, **sweep(models, cfg.alpha, phase, partial(row.columns, cfg))}


def run_sweep(cfg: RunConfig) -> dict[str, np.ndarray]:
    """Write the table of a run whose row is all it reads."""
    return write_csv(cfg.out, cfg, _sweep_table(cfg))


def _fig2a_columns(cfg: RunConfig, protocol: Protocol, t_c) -> dict:
    t_theta = cfg.axis("t_theta").values()[None, :]
    ratio = protocol.ratio(t_c, t_theta, cfg.theta0)
    return {"t_theta": t_theta, "R": ratio, "enhanced": ratio > 1.0}


def _ratio(name: str):
    """The columns of a run that writes only the enhancement ratio, as name."""
    return lambda cfg, protocol, t_c: {name: protocol.ratio(t_c, cfg.t_theta, cfg.theta0)}


def _fig3b_columns(cfg: RunConfig, protocol: Protocol, t_c) -> dict:
    final = protocol.state(t_c, cfg.t_theta, cfg.theta0)
    cfi, qfi = protocol._cfi_homodyne(final, cfg.t_theta), protocol.qfi(t_c, cfg.t_theta)
    return {"meanP": final.mp, "cfi": cfi, "qfi": qfi, "cfi_over_qfi": cfi / qfi}


def _mean_p_at(cfg: RunConfig, g: float) -> float:
    swept = sweep([cfg.model._replace(g=g)], cfg.alpha, TABLE["fig3b"].phase,
                  lambda protocol, t_c: {"meanP": protocol.state(t_c, cfg.t_theta, cfg.theta0).mp})
    return float(swept["meanP"][0])


def run_fig3b(cfg: RunConfig) -> dict[str, np.ndarray]:
    require_bright_probe(cfg.alpha, "⟨P⟩'s zero crossings are not read for a vacuum probe "
                                    "(|alpha| < 1e-12)")
    table = _sweep_table(cfg)
    # Sign changes of ⟨P⟩ versus g, each refined down to adjacent floats.
    crossings = zero_crossings(lambda value: _mean_p_at(cfg, value), table["g"], table["meanP"])
    comments = tuple(f"meanP_zero_crossing g={c!r}" for c in crossings) or (
        "meanP_zero_crossings none (curve is sign-definite on this grid)",)
    return write_csv(cfg.out, cfg, table, extra_comments=comments)


def run_lmg_threshold(cfg: RunConfig) -> dict[str, np.ndarray]:
    # The threshold comes first: a bracket it rejects stops the run before
    # the sweep, after at most its two end values. Config time does not
    # phase-check a given bracket; an end out of phase exits here.
    lo, hi = cfg.bracket
    lam_star = find_threshold(
        "LMG-frequency", cfg.t_theta, cfg.alpha, cfg.bracket,
        omega=cfg.model.omega, gamma=cfg.model.gamma, theta0=cfg.theta0,
    )
    comments = (f"lambda_star={lam_star!r} bracket=({lo!r},{hi!r})",)
    return write_csv(cfg.out, cfg, _sweep_table(cfg), extra_comments=comments)


def _displacement_columns(cfg: RunConfig, protocol: Protocol, t_c) -> dict:
    protocol._require_bright_probe()
    exact = protocol.qfi(t_c, cfg.t_theta)
    return {"delta_p": protocol.structure.Delta,
            "qfi_formula": protocol.qfi_displacement(t_c, cfg.t_theta), "qfi_exact": exact,
            # Protocol.ratio's quotient, reusing the exact QFI.
            "R": exact / protocol.direct_baseline(t_c, cfg.t_theta, cfg.theta0)}


def run_validate(cfg: RunConfig) -> dict:
    from .validate import run_checks  # deferred: validate pulls in the fock oracle

    if not cfg.oracle:
        raise ConfigError("the validate experiment requires oracle=true")
    report = run_checks()
    for check in report["checks"]:  # json.dumps would write a bare NaN, which is not JSON
        for key, value in check["measured"].items():
            if not np.isfinite(value).all():
                raise NonFiniteError(f"experiment validate: check {check['name']} measured "
                                     f"{key}={value!r}, which is nan or inf")
    report["version"] = __version__
    report["config_sha256"] = cfg.sha256()
    _write(cfg.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


class Experiment(NamedTuple):
    """One experiment. `axes` and `fields` are the grid inputs its config names:
    the sweep axes, then the fields that list the model values or bound a
    threshold search. `phase` is √Δ·t_c at every row, or None for the
    sqrtDelta_tc axis; `columns(cfg, protocol, t_c)` names the columns
    of all model values at once. validate has neither."""
    runner: Callable
    axes: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()
    phase: float | None = None
    columns: Callable | None = None


TABLE = {
    "fig2a": Experiment(run_sweep, ("sqrtDelta_tc", "t_theta"), columns=_fig2a_columns),
    "fig2b": Experiment(run_sweep, ("sqrtDelta_tc",), ("g_values",), None, _ratio("R")),
    "fig2b-inset": Experiment(run_sweep, ("g",), (), math.pi, _ratio("R_tau")),
    "fig3a": Experiment(run_sweep, ("sqrtDelta_tc",), ("g_values",), None,
                        lambda cfg, p, t_c: {"S": p.skew(t_c), "F": p.qfi(t_c, cfg.t_theta)}),
    "fig3b": Experiment(run_fig3b, ("g",), (), math.pi, _fig3b_columns),
    "lmg-threshold": Experiment(run_lmg_threshold, ("lambda",), ("bracket",), math.pi,
                                _ratio("R_tau")),
    # Quarter period: the point where the asymptotic sin² formula is exact.
    "displacement": Experiment(run_sweep, ("g",), (), 0.5 * math.pi, _displacement_columns),
    "validate": Experiment(run_validate),
}
EXPERIMENTS = tuple(TABLE)
RUNNERS = {name: row.runner for name, row in TABLE.items()}


def run_experiment(cfg: RunConfig):
    """Run one experiment. An input error is a ConfigError subclass raised where
    it is found (:mod:`canp.errors`). numpy stays silent on overflow and invalid
    values: every output is checked for nan and inf. A result block too large
    to allocate, from axes that each fit (Axis.values), is a CanpError naming
    the experiment."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return RUNNERS[cfg.experiment](cfg)
    except MemoryError as exc:
        raise CanpError(f"experiment {cfg.experiment}: {exc}") from None
