"""One benchmark sample, run in a fresh interpreter.

    python3 benchmarks/child.py SPEC.json RESULT.json

SPEC holds `mode` and, for timed modes, `argv`: the argument lists of the
`canp.cli.main` calls to make, in order. Modes:

* `setup`: import `canp.cli`, read the spec, report the ready time, exit;
* `run`: as `setup`, then call `canp.cli.main` for each argument list and
  report wall time, CPU time (this process and its reaped pool workers) and
  peak resident memory;
* `trace`: as `run`, with every public `canp` function wrapped by
  `tracer.Tracer`; the spans are written to SPEC["spans"].

The ready time is a `time.monotonic()` reading. That clock is shared by all
processes on the machine, so the parent subtracts its own launch time from
it to get the set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _rusage() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children (the pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """This process's peak RSS plus that of its largest reaped child, in kB.

    The own peak comes from VmHWM, not ru_maxrss: Linux carries ru_maxrss
    over an exec, so it would include the launching benchmark process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _environment(first_config: str | None) -> dict:
    import numpy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        # Read only if the program imported it: importing it here would
        # hide a change that drops scipy from the runtime.
        "scipy": getattr(sys.modules.get("scipy"), "__version__", "not imported"),
        "blas": numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "blas_version": numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CANP_THREADS": os.environ.get("CANP_THREADS"),
    }
    try:
        from canp import experiments
        env["canp_parallelism"] = experiments.effective_parallelism(
            experiments.load_config(first_config))
    except (AttributeError, ImportError, TypeError):
        env["canp_parallelism"] = "no parallelism setting"
    return env


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    import canp.cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ready = time.monotonic()

    src = Path(spec["src"]).resolve()
    if src not in Path(canp.cli.__file__).resolve().parents:
        print(f"canp imported from {canp.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result: dict = {"ready": ready}
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cli_main = canp.cli.main  # looked up after install: the traced stand-in
        exits = []
        before = _rusage()
        start = time.monotonic()
        for argv in spec["argv"]:
            try:
                exits.append(cli_main(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                exits.append(exc.code)
            except Exception as exc:  # a crash is a failed job, not a failed sample
                exits.append(f"{type(exc).__name__}: {exc}")
        wall = time.monotonic() - start
        after = _rusage()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["spans"])
        result.update(
            exits=exits,
            wall_s=wall,
            cpu_s=(after[0] - before[0]) + (after[1] - before[1]),
            peak_rss_mb=_peak_rss_kb() / 1024.0,
            environment=_environment(spec.get("first_config")),
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
