"""Sweep drivers that generate the figure data and validation reports.

Each experiment maps a JSON run configuration onto a deterministic CSV (or a
JSON report for `validate`). A sweep is a single-process array evaluation:
each CSV runner hands its model values to :func:`canp.metrology.sweep`, which
builds one :class:`canp.metrology.Protocol` per value, places t_c at √Δ·t_c
and evaluates the runner's columns over that value's whole time grid in closed
form; `validate` runs its number-basis oracle in the same process. A malformed
or unknown field is a ConfigError. A CSV runner hands the writer the arrays it
computed, before broadcasting, and returns the table written: each column's
values, one per row. Every CSV starts with a comment line carrying the tool
version and a hash of the resolved configuration without its output path. The
hash covers every other field, also those that cannot change this run's data:
validate's model and physics fields (its checks fix their own) and LMG's omega.
A config names exactly the grid inputs its experiment reads (:data:`GRIDS`).
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

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

# The grid inputs each experiment reads: its sweep axes, then the fields that
# list its model values or bound its threshold search. A config names every
# one of them and no other (config_from_dict).
GRIDS = {
    "fig2a": (("sqrtDelta_tc", "t_theta"), ()),
    "fig2b": (("sqrtDelta_tc",), ("g_values",)),
    "fig2b-inset": (("g",), ()),
    "fig3a": (("sqrtDelta_tc",), ("g_values",)),
    "fig3b": (("g",), ()),
    "lmg-threshold": (("lambda",), ("bracket",)),
    "displacement": (("g",), ()),
    "validate": ((), ()),
}


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


def _model_values(cfg: RunConfig) -> tuple[np.ndarray, list[ModelParams]]:
    """The parameter a run sweeps, as the config gave it (the g_values, or the
    g or lambda axis), and the model at each value: a copy with g or λ moved
    there."""
    axes = GRIDS[cfg.experiment][0]
    if "lambda" in axes:
        lam = cfg.axis("lambda").values()
        return lam, [cfg.model._replace(lam=value) for value in lam.tolist()]
    if cfg.g_values:
        g = np.array(cfg.g_values)
    elif "g" in axes:
        g = cfg.axis("g").values()
    else:  # fig2a sweeps nothing and reads the model alone; validate reads no model
        return np.empty(0), ([cfg.model] if cfg.experiment == "fig2a" else [])
    return g, [cfg.model._replace(g=value) for value in g.tolist()]


def _validate(cfg: RunConfig, named: dict) -> None:
    """Time axes must be ordered; the config, whose keys are `named`, must name
    exactly its experiment's grid inputs (GRIDS); and every model value the run
    reads must have its variant's fields (checked on building it) and obey its
    phase rule."""
    for ax in cfg.sweep:
        if ax.name == "sqrtDelta_tc":
            if ax.start < 0.0 or ax.stop < ax.start:
                raise ConfigError("sqrtDelta_tc sweep must be nonnegative and increasing")
        elif ax.name == "t_theta":
            if ax.start <= 0.0 or ax.stop <= 0.0:
                raise ConfigError("t_theta sweep must stay positive")
    axes, fields = GRIDS[cfg.experiment]
    for name in axes:
        cfg.axis(name)  # a missing axis is a ConfigError naming it
    for field in fields:
        if field not in named:
            raise ConfigError(f"experiment {cfg.experiment} requires {field}")
    unread = [f"sweep axis {ax.name!r}" for ax in cfg.sweep if ax.name not in axes]
    unread += [key for key in ("g_values", "bracket") if key in named and key not in fields]
    if unread:
        raise ConfigError(f"experiment {cfg.experiment} does not read {unread[0]}")
    if cfg.experiment == "displacement" and cfg.model.variant != "QRM-displacement":
        raise ConfigError(f"displacement needs variant QRM-displacement, got {cfg.model.variant}")
    for params in _model_values(cfg)[1]:
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


def run_fig2a(cfg: RunConfig) -> dict[str, np.ndarray]:
    sdtc = cfg.axis("sqrtDelta_tc").values()[:, None]
    tth = cfg.axis("t_theta").values()[None, :]
    # One model value, so R is (1, n, m): the rows run √Δ·t_c first.
    swept = sweep([cfg.model], cfg.alpha, sdtc, lambda p, t_c: {"R": p.ratio(t_c, tth, cfg.theta0)})
    return write_csv(cfg.out, cfg, {"sqrtDelta_tc": sdtc, "t_theta": tth, **swept,
                                    "enhanced": swept["R"] > 1.0})


def run_fig2b(cfg: RunConfig) -> dict[str, np.ndarray]:
    sdtc = cfg.axis("sqrtDelta_tc").values()
    g, models = _model_values(cfg)
    swept = sweep(models, cfg.alpha, sdtc,
                  lambda p, t_c: {"R": p.ratio(t_c, cfg.t_theta, cfg.theta0)})
    # g runs down the (k, n) block of results, √Δ·t_c along it.
    return write_csv(cfg.out, cfg, {"g": g[:, None], "sqrtDelta_tc": sdtc, **swept})


def run_fig2b_inset(cfg: RunConfig) -> dict[str, np.ndarray]:
    g, models = _model_values(cfg)
    swept = sweep(models, cfg.alpha, math.pi,
                  lambda p, t_c: {"R_tau": p.ratio(t_c, cfg.t_theta, cfg.theta0)})
    return write_csv(cfg.out, cfg, {"g": g, **swept})


def run_fig3a(cfg: RunConfig) -> dict[str, np.ndarray]:
    sdtc = cfg.axis("sqrtDelta_tc").values()
    g, models = _model_values(cfg)
    swept = sweep(models, cfg.alpha, sdtc,
                  lambda p, t_c: {"S": p.skew(t_c), "F": p.qfi(t_c, cfg.t_theta)})
    return write_csv(cfg.out, cfg, {"g": g[:, None], "sqrtDelta_tc": sdtc, **swept})


def _mean_p_at(cfg: RunConfig, g: float) -> float:
    swept = sweep([cfg.model._replace(g=g)], cfg.alpha, math.pi,
                  lambda p, t_c: {"meanP": p.state(t_c, cfg.t_theta, cfg.theta0).mp})
    return float(swept["meanP"][0])


def run_fig3b(cfg: RunConfig) -> dict[str, np.ndarray]:
    require_bright_probe(cfg.alpha, "⟨P⟩'s zero crossings are not read for a vacuum probe "
                                    "(|alpha| < 1e-12)")

    def columns(protocol: Protocol, t_c) -> dict:
        final = protocol.state(t_c, cfg.t_theta, cfg.theta0)
        return {"meanP": final.mp, "cfi": protocol._cfi_homodyne(final, cfg.t_theta),
                "qfi": protocol.qfi(t_c, cfg.t_theta)}

    g, models = _model_values(cfg)
    swept = sweep(models, cfg.alpha, math.pi, columns)
    # Sign changes of ⟨P⟩ versus g, each refined down to adjacent floats.
    crossings = zero_crossings(lambda value: _mean_p_at(cfg, value), g, swept["meanP"])
    if crossings:
        comments = tuple(f"meanP_zero_crossing g={c!r}" for c in crossings)
    else:
        comments = ("meanP_zero_crossings none (curve is sign-definite on this grid)",)
    return write_csv(cfg.out, cfg, {"g": g, **swept, "cfi_over_qfi": swept["cfi"] / swept["qfi"]},
                     extra_comments=comments)


def run_lmg_threshold(cfg: RunConfig) -> dict[str, np.ndarray]:
    # The threshold comes first: a bracket it rejects stops the run before
    # the sweep, after at most its two end values. Config time does not
    # phase-check a given bracket; an end out of phase exits here.
    lam, models = _model_values(cfg)
    lo, hi = cfg.bracket
    lam_star = find_threshold(
        "LMG-frequency", cfg.t_theta, cfg.alpha, cfg.bracket,
        omega=cfg.model.omega, gamma=cfg.model.gamma, theta0=cfg.theta0,
    )
    comments = (f"lambda_star={lam_star!r} bracket=({lo!r},{hi!r})",)
    swept = sweep(models, cfg.alpha, math.pi,
                  lambda p, t_c: {"R_tau": p.ratio(t_c, cfg.t_theta, cfg.theta0)})
    return write_csv(cfg.out, cfg, {"lambda": lam, **swept}, extra_comments=comments)


def run_displacement(cfg: RunConfig) -> dict[str, np.ndarray]:
    def columns(protocol: Protocol, t_c) -> dict:
        protocol._require_bright_probe()
        exact = protocol.qfi(t_c, cfg.t_theta)
        return {"delta_p": protocol.structure.Delta,
                "qfi_formula": protocol.qfi_displacement(t_c, cfg.t_theta), "qfi_exact": exact,
                # Protocol.ratio's quotient, reusing the exact QFI.
                "R": exact / protocol.direct_baseline(t_c, cfg.t_theta, cfg.theta0)}

    g, models = _model_values(cfg)
    # Quarter period: the point where the asymptotic sin² formula is exact.
    return write_csv(cfg.out, cfg, {"g": g, **sweep(models, cfg.alpha, 0.5 * math.pi, columns)})


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
