"""Sweep runners that generate the figure data and validation reports.

Each experiment maps a JSON run configuration onto a deterministic CSV (or a
JSON report for `validate`). Grid points are pure function evaluations, so
sweeps parallelize over processes with results gathered in input order; the
output bytes are identical regardless of the parallelism cap. Every CSV
starts with a comment line carrying the tool version and a hash of the
resolved configuration (the output path and parallelism cap are excluded
from the hash precisely because they must not affect the data).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._version import __version__
from .errors import ConfigError
from .metrology import (
    ProtocolSpec,
    cfi_homodyne,
    enhancement_ratio,
    find_threshold,
    qfi_displacement,
    qfi_exact,
    skew_information,
)
from .models import ModelParams
from .gaussian import quadrature_stats
from . import metrology

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

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        if self.points < 2:
            raise ConfigError(f"axis {self.name}: points must be >= 2")
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
    dtheta: float = 1e-4
    out: str = "out.csv"
    parallelism: int | None = None
    oracle: bool = False

    def axis(self, name: str) -> Axis:
        for ax in self.sweep:
            if ax.name == name:
                return ax
        raise ConfigError(f"experiment {self.experiment} requires sweep axis {name!r}")

    def hash_dict(self) -> dict:
        """Everything that can affect computed values (not out/parallelism)."""
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
            "dtheta": self.dtheta,
            "oracle": self.oracle,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.hash_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_alpha(obj) -> complex:
    if isinstance(obj, dict):
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise ConfigError(f"alpha must be a number or {{re, im}} object, got {obj!r}")


def config_from_dict(obj: dict) -> RunConfig:
    known = {
        "experiment", "model", "sweep", "t_theta", "alpha", "theta0",
        "g_values", "bracket", "dtheta", "out", "parallelism", "oracle",
    }
    unknown = set(obj) - known
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

    axes = []
    for name, ax in obj.get("sweep", {}).items():
        try:
            axes.append(
                Axis(name=name, start=float(ax["start"]), stop=float(ax["stop"]),
                     points=int(ax["points"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep axis {name!r}: {exc}") from exc

    bracket = obj.get("bracket")
    if bracket is not None:
        if len(bracket) != 2:
            raise ConfigError("bracket must be a [lo, hi] pair")
        bracket = (float(bracket[0]), float(bracket[1]))

    parallelism = obj.get("parallelism")
    if parallelism is not None:
        parallelism = int(parallelism)
        if parallelism < 1:
            raise ConfigError("parallelism must be >= 1")

    cfg = RunConfig(
        experiment=experiment,
        model=model,
        sweep=tuple(axes),
        t_theta=float(obj.get("t_theta", 12.0)),
        alpha=_parse_alpha(obj.get("alpha", {"re": 0.3, "im": 1.0})),
        theta0=float(obj.get("theta0", 0.0)),
        g_values=tuple(float(g) for g in obj.get("g_values", ())),
        bracket=bracket,
        dtheta=float(obj.get("dtheta", 1e-4)),
        out=str(obj.get("out", "out.csv")),
        parallelism=parallelism,
        oracle=bool(obj.get("oracle", False)),
    )
    _validate_sweep(cfg)
    return cfg


def _validate_sweep(cfg: RunConfig) -> None:
    """Sweep bounds must stay inside model validity ranges."""
    for ax in cfg.sweep:
        if ax.points < 2:
            raise ConfigError(f"axis {ax.name}: points must be >= 2")
        if ax.name == "g":
            if not (0.0 <= ax.start < 1.0 and 0.0 <= ax.stop < 1.0):
                raise ConfigError("g sweep must stay inside [0, 1)")
        elif ax.name == "lambda":
            gamma = cfg.model.gamma
            if gamma is None:
                raise ConfigError("lambda sweep requires model gamma")
            for edge in (ax.start, ax.stop):
                if (gamma - edge) * (1.0 - edge) <= 0.0:
                    raise ConfigError(f"lambda={edge} leaves the LMG normal phase")
        elif ax.name == "sqrtDelta_tc":
            if ax.start < 0.0 or ax.stop < ax.start:
                raise ConfigError("sqrtDelta_tc sweep must be nonnegative and increasing")
    for g in cfg.g_values:
        if not (0.0 <= g < 1.0):
            raise ConfigError(f"g_values entry {g} outside [0, 1)")


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
    if overrides:
        obj = apply_overrides(obj, overrides)
    return config_from_dict(obj)


def effective_parallelism(cfg: RunConfig) -> int:
    cap = cfg.parallelism or (os.cpu_count() or 1)
    env = os.environ.get("CANP_THREADS")
    if env:
        try:
            cap = min(cap, int(env))
        except ValueError as exc:
            raise ConfigError(f"CANP_THREADS={env!r} is not an integer") from exc
    return max(1, cap)


def _pmap(fn, tasks: list, workers: int) -> list:
    """Order-preserving map, optionally over a process pool."""
    if workers <= 1 or len(tasks) < 64:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


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
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _spec_at(params: ModelParams, sqrt_delta_tc: float, t_theta: float,
             alpha: complex, theta0: float) -> ProtocolSpec:
    delta = params.published_delta()
    t_c = sqrt_delta_tc / math.sqrt(delta)
    return ProtocolSpec(
        Hc=params.preparation(),
        Htheta=params.encoding(),
        t_c=t_c,
        t_theta=t_theta,
        alpha=alpha,
        theta0=theta0,
        omega=params.omega,
    )


# Grid-point workers (top level so they pickle for the process pool).


def _fig2a_point(cfg: RunConfig, point: tuple[float, float]) -> tuple:
    sdtc, tth = point
    spec = _spec_at(cfg.model, sdtc, tth, cfg.alpha, cfg.theta0)
    ratio = enhancement_ratio(spec)
    return (sdtc, tth, ratio, ratio > 1.0)


def _fig2b_point(cfg: RunConfig, point: tuple[float, float]) -> tuple:
    g, sdtc = point
    spec = _spec_at(cfg.model.replace(g=g), sdtc, cfg.t_theta, cfg.alpha, cfg.theta0)
    return (g, sdtc, enhancement_ratio(spec))


def _fig2b_inset_point(cfg: RunConfig, g: float) -> tuple:
    spec = _spec_at(cfg.model.replace(g=g), math.pi, cfg.t_theta, cfg.alpha, cfg.theta0)
    return (g, enhancement_ratio(spec))


def _fig3a_point(cfg: RunConfig, point: tuple[float, float]) -> tuple:
    g, sdtc = point
    spec = _spec_at(cfg.model.replace(g=g), sdtc, cfg.t_theta, cfg.alpha, cfg.theta0)
    return (g, sdtc, skew_information(spec), qfi_exact(spec))


def _fig3b_point(cfg: RunConfig, g: float) -> tuple:
    spec = _spec_at(cfg.model.replace(g=g), math.pi, cfg.t_theta, cfg.alpha, cfg.theta0)
    mean_p, _ = quadrature_stats(metrology.protocol_state(spec))
    cfi = cfi_homodyne(spec, cfg.dtheta)
    qfi = qfi_exact(spec)
    return (g, mean_p, cfi, qfi, cfi / qfi)


def _lmg_point(cfg: RunConfig, lam: float) -> tuple:
    params = cfg.model.replace(lam=lam)
    spec = _spec_at(params, math.pi, cfg.t_theta, cfg.alpha, cfg.theta0)
    return (lam, enhancement_ratio(spec))


def _displacement_point(cfg: RunConfig, g: float) -> tuple:
    params = cfg.model.replace(g=g)
    delta_p = params.published_delta()
    # Quarter period: the point where the asymptotic sin² formula is exact.
    spec = _spec_at(params, 0.5 * math.pi, cfg.t_theta, cfg.alpha, cfg.theta0)
    formula = qfi_displacement(spec)
    exact = qfi_exact(spec)
    return (g, delta_p, formula, exact, enhancement_ratio(spec))


def run_fig2a(cfg: RunConfig) -> list[tuple]:
    sdtc = cfg.axis("sqrtDelta_tc").values()
    tth = cfg.axis("t_theta").values()
    tasks = [(float(s), float(t)) for s in sdtc for t in tth]
    rows = _pmap(partial(_fig2a_point, cfg), tasks, effective_parallelism(cfg))
    write_csv(cfg.out, cfg, ("sqrtDelta_tc", "t_theta", "R", "enhanced"), rows)
    return rows


def run_fig2b(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.g_values or (0.80, 0.90, 0.96, 0.98)
    sdtc = cfg.axis("sqrtDelta_tc").values()
    tasks = [(float(g), float(s)) for g in g_values for s in sdtc]
    rows = _pmap(partial(_fig2b_point, cfg), tasks, effective_parallelism(cfg))
    write_csv(cfg.out, cfg, ("g", "sqrtDelta_tc", "R"), rows)
    return rows


def run_fig2b_inset(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.axis("g").values()
    rows = _pmap(partial(_fig2b_inset_point, cfg), [float(g) for g in g_values],
                 effective_parallelism(cfg))
    write_csv(cfg.out, cfg, ("g", "R_tau"), rows)
    return rows


def run_fig3a(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.g_values or (0.90, 0.95, 0.98)
    sdtc = cfg.axis("sqrtDelta_tc").values()
    tasks = [(float(g), float(s)) for g in g_values for s in sdtc]
    rows = _pmap(partial(_fig3a_point, cfg), tasks, effective_parallelism(cfg))
    write_csv(cfg.out, cfg, ("g", "sqrtDelta_tc", "S", "F"), rows)
    return rows


def _mean_p_at(cfg: RunConfig, g: float) -> float:
    spec = _spec_at(cfg.model.replace(g=g), math.pi, cfg.t_theta, cfg.alpha, cfg.theta0)
    return quadrature_stats(metrology.protocol_state(spec))[0]


def _zero_crossings(cfg: RunConfig, grid: np.ndarray, values: list[float]) -> list[float]:
    """Sign changes of ⟨P⟩ versus g, refined by bisection."""
    crossings = []
    for lo, hi, f_lo, f_hi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if f_lo == 0.0:
            crossings.append(float(lo))
            continue
        if f_lo * f_hi >= 0.0:
            continue
        a, b, f_a = float(lo), float(hi), f_lo
        for _ in range(60):
            mid = 0.5 * (a + b)
            f_mid = _mean_p_at(cfg, mid)
            if f_mid == 0.0:
                a = b = mid
                break
            if f_a * f_mid < 0.0:
                b = mid
            else:
                a, f_a = mid, f_mid
        crossings.append(0.5 * (a + b))
    if values and values[-1] == 0.0:
        crossings.append(float(grid[-1]))
    return crossings


def run_fig3b(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.axis("g").values()
    rows = _pmap(partial(_fig3b_point, cfg), [float(g) for g in g_values],
                 effective_parallelism(cfg))
    crossings = _zero_crossings(cfg, g_values, [row[1] for row in rows])
    if crossings:
        comments = tuple(f"meanP_zero_crossing g={c!r}" for c in crossings)
    else:
        comments = ("meanP_zero_crossings none (curve is sign-definite on this grid)",)
    write_csv(cfg.out, cfg, ("g", "meanP", "cfi", "qfi", "cfi_over_qfi"), rows, comments)
    return rows


def run_lmg_threshold(cfg: RunConfig) -> list[tuple]:
    lam_axis = cfg.axis("lambda").values()
    rows = _pmap(partial(_lmg_point, cfg), [float(x) for x in lam_axis],
                 effective_parallelism(cfg))
    bracket = cfg.bracket or (float(lam_axis[0]), float(lam_axis[-1]))
    lam_star = find_threshold(
        "LMG-frequency", cfg.t_theta, cfg.alpha, bracket,
        omega=cfg.model.omega, gamma=cfg.model.gamma, theta0=cfg.theta0,
    )
    comments = (f"lambda_star={lam_star!r} bracket=({bracket[0]!r},{bracket[1]!r})",)
    write_csv(cfg.out, cfg, ("lambda", "R_tau"), rows, comments)
    return rows


def run_displacement(cfg: RunConfig) -> list[tuple]:
    g_values = cfg.axis("g").values()
    rows = _pmap(partial(_displacement_point, cfg), [float(g) for g in g_values],
                 effective_parallelism(cfg))
    write_csv(cfg.out, cfg, ("g", "delta_p", "qfi_formula", "qfi_exact", "R"), rows)
    return rows


def run_validate(cfg: RunConfig) -> dict:
    from .validate import run_checks  # deferred: validate pulls in the fock oracle

    if not cfg.oracle:
        raise ConfigError("the validate experiment requires oracle=true")
    report = run_checks(parallelism=min(4, effective_parallelism(cfg)))
    report["version"] = __version__
    report["config_sha256"] = cfg.sha256()
    path = cfg.out
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
