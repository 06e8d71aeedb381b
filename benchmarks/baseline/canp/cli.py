"""Command-line entry point.

Usage:
    canp <experiment> --config path.json [--out path] [--key.path=value ...]

Any config field can be overridden with a flag of the same dotted name,
e.g. --model.g=0.9 or --sweep.g.points=50. Exit codes: 0 success,
1 validation failure, 2 configuration error. The CANP_THREADS environment
variable caps worker parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .errors import CanpError, ConfigError
from .experiments import EXPERIMENTS, apply_overrides, config_from_dict, run_experiment


def _split_overrides(extras: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in extras:
        if not item.startswith("--") or "=" not in item:
            raise ConfigError(
                f"unrecognized argument {item!r}; overrides look like --model.g=0.96"
            )
        key, _, value = item[2:].partition("=")
        if not key:
            raise ConfigError(f"empty override key in {item!r}")
        overrides[key] = value
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="canp",
        description="Critical-preparation metrology sweeps and validation reports.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (overrides config)")
    parser.add_argument("--version", action="version", version=f"canp {__version__}")
    args, extras = parser.parse_known_args(argv)

    try:
        overrides = _split_overrides(extras)
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["experiment"] = args.experiment
        if args.out is not None:
            raw["out"] = args.out
        raw = apply_overrides(raw, overrides)
        cfg = config_from_dict(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CanpError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    if cfg.experiment == "validate":
        for check in result["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']} ({check['seconds']:.2f}s)")
        print(f"report written to {cfg.out}")
        return 0 if result["passed"] else 1

    print(f"{cfg.experiment}: {len(result)} rows written to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
