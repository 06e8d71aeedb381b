"""Per-call cost of the public functions of each layer.

    python3 benchmarks/percall.py RESULT.json [OUT_DIR]

Times each call directly, in this interpreter, with BLAS pinned by the
parent (OPENBLAS_NUM_THREADS=1). Each call is first run once, then repeated
in batches of at least BATCH_S seconds; the result is the median over
BATCHES batches, in microseconds per call. A function that no longer exists
is reported as 0 and named under "missing".

The inputs are fixed, not seeded: a QRM-frequency protocol at g = 0.96,
t_c = pi/sqrt(Delta), t_theta = 12, alpha = 0.3 + 1i, the working point of
the paper's figures; the number-basis QFI uses the first oracle-grid point
that fits 60 levels (g = 0.5, a quarter period, theta0 = 0.1); the CSV
write is 40,000 fig2a-shaped rows.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

BATCH_S = 0.02
BATCHES = 7
PROPAGATOR_DIMS = (60, 120, 240, 480)


def per_call_us(fn) -> float:
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    k = max(1, int(BATCH_S / max(once, 1e-9)))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        times.append((time.perf_counter() - t0) / k)
    return 1e6 * statistics.median(times)


def calls(out_dir: str) -> dict:
    """{metric prefix: zero-argument callable}, built lazily so a missing name is caught."""
    from canp import experiments, fock, gaussian, metrology, operators
    from canp.models import ModelParams

    params = ModelParams("QRM-frequency", g=0.96)
    hc, htheta = params.pair()
    t_c = math.pi / math.sqrt(params.published_delta())
    alpha = 0.3 + 1.0j
    spec = metrology.ProtocolSpec(Hc=hc, Htheta=htheta, t_c=t_c, t_theta=12.0, alpha=alpha)
    prepared = gaussian.evolve(gaussian.coherent(alpha), hc, t_c)

    oracle_params = ModelParams("QRM-frequency", g=0.5)
    oracle_spec = metrology.ProtocolSpec(
        Hc=oracle_params.preparation(), Htheta=oracle_params.encoding(),
        t_c=0.5 * math.pi / math.sqrt(oracle_params.published_delta()),
        t_theta=12.0, alpha=alpha, theta0=0.1,
    )

    cfg = experiments.config_from_dict({
        "experiment": "fig2a",
        "model": {"variant": "QRM-frequency", "omega": 1.0, "g": 0.96},
        "sweep": {"sqrtDelta_tc": {"start": 0.0, "stop": 4.0 * math.pi, "points": 200},
                  "t_theta": {"start": 0.5, "stop": 20.0, "points": 200}},
    })
    rows = [(0.1 * i, 0.5 + 1e-3 * j, 1.0 + 1e-5 * (i * 200 + j), (i + j) % 2 == 0)
            for i in range(200) for j in range(200)]
    csv_path = str(Path(out_dir, "percall.csv"))

    table = {
        "operators.commutator": lambda: operators.commutator(hc, htheta),
        "operators.derive_critical_structure":
            lambda: operators.derive_critical_structure(hc, htheta),
        "gaussian.evolution_map": lambda: gaussian.evolution_map(hc, t_c),
        "gaussian.variance_quadratic": lambda: gaussian.variance_quadratic(prepared, htheta),
        "metrology.enhancement_ratio": lambda: metrology.enhancement_ratio(spec),
        "metrology.cfi_homodyne": lambda: metrology.cfi_homodyne(spec),
        "metrology.evaluate_report": lambda: metrology.evaluate_report(spec),
        "fock.qfi_numeric": lambda: fock.qfi_numeric(oracle_spec),
        "experiments.write_csv": lambda: experiments.write_csv(
            csv_path, cfg, ("sqrtDelta_tc", "t_theta", "R", "enhanced"), rows),
    }
    for dim in PROPAGATOR_DIMS:
        table[f"fock.Propagator.dim{dim}"] = lambda dim=dim: fock.Propagator(hc, dim)
    return table


NAMES = (
    "operators.commutator", "operators.derive_critical_structure",
    "gaussian.evolution_map", "gaussian.variance_quadratic",
    "metrology.enhancement_ratio", "metrology.cfi_homodyne", "metrology.evaluate_report",
    *(f"fock.Propagator.dim{d}" for d in PROPAGATOR_DIMS),
    "fock.qfi_numeric", "experiments.write_csv",
)


def main() -> int:
    result_path = sys.argv[1]
    with tempfile.TemporaryDirectory(dir=sys.argv[2] if len(sys.argv) > 2 else None) as tmp:
        try:
            table = calls(tmp)
        except (AttributeError, ImportError, TypeError) as exc:
            table, missing = {}, [f"set-up: {type(exc).__name__}: {exc}"]
        else:
            missing = []
        us = {}
        for name in NAMES:
            try:
                us[name] = per_call_us(table[name])
            except (AttributeError, KeyError, TypeError) as exc:
                us[name] = 0.0
                missing.append(f"{name}: {type(exc).__name__}: {exc}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"us_per_call": us, "missing": missing}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
