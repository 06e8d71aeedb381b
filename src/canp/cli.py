"""Command-line driver: `canp <experiment> --config PATH [--out PATH] [--key.path=value ...]`,
or `canp -h | --help | --version`.

A flag --key.path=value overrides that config field (--model.g=0.9), its value
read as JSON where it parses and as text otherwise; `--out PATH` is a raw path.
Flags are not abbreviated. Exit codes: 0 success, 1 validation failure or
another CanpError, 2 bad command line or a ConfigError, subclasses included
(:mod:`canp.errors`). Every experiment, `validate` and its
number-basis oracle included, runs in this one process.
"""

from __future__ import annotations

import json
import sys

from ._version import __version__
from .errors import CanpError, ConfigError
from .experiments import EXPERIMENTS, load_config, run_experiment

_USAGE = f"usage: canp {{{','.join(EXPERIMENTS)}}} --config PATH [--out PATH] [--key.path=value ...]"


def _read_argv(argv: list[str]) -> tuple[str, str, dict[str, str]]:
    """One pass over argv: the experiment, config path and load_config overrides. -h, --help
    or --version ends it and is returned as the experiment; a bad argument is a ConfigError."""
    experiment, overrides, words = None, {}, iter(argv)
    for word in words:
        if word in ("-h", "--help", "--version"):
            return word, "", {}
        if word in ("--config", "--out"):
            key, value = word[2:], next(words, None)
            if value is None:
                raise ConfigError(f"{word} needs a value")
            value = value if key == "config" else json.dumps(value)  # the raw path, as JSON
        elif experiment is None and not word.startswith("-"):
            if word not in EXPERIMENTS:
                raise ConfigError(f"unknown experiment {word!r}")
            experiment, key, value = word, "experiment", json.dumps(word)
        else:
            key, eq, value = word[2:].partition("=")
            if not (word.startswith("--") and key and eq):
                raise ConfigError(f"unrecognized argument {word!r}; overrides look like --model.g=0.96")
            if key.partition(".")[0] == "experiment":
                raise ConfigError(f"{word!r}: the experiment is the positional argument")
        overrides[key] = value
    config = overrides.pop("config", None)
    if experiment is None or config is None:
        raise ConfigError("missing the experiment" if experiment is None else "missing --config PATH")
    return experiment, config, overrides


def main(argv: list[str] | None = None) -> int:
    try:
        experiment, config, overrides = _read_argv(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(_USAGE, f"config error: {exc}", sep="\n", file=sys.stderr)
        return 2
    if experiment in ("-h", "--help", "--version"):
        print(f"canp {__version__}" if experiment == "--version" else _USAGE)
        return 0

    try:
        cfg = load_config(config, overrides)
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

    n_rows = len(next(iter(result.values())))  # the table maps each column to its rows
    print(f"{cfg.experiment}: {n_rows} rows written to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
