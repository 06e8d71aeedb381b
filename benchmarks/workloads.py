"""Seeded workload configurations.

A workload is a list of (experiment, config) pairs that one benchmark sample
runs back to back in a single interpreter. The seed moves only physical
parameters (g, alpha, t_theta, theta0, g_values) and always inside the model
validity ranges; grid sizes, brackets and every other amount of work stay as
in the configs checked in at the commit that defined the benchmark. The base
configs are copied here rather than read from `configs/`, so a later edit of
those files cannot change what the benchmark measures.

`dtheta` and `parallelism` are left at their defaults on purpose: both are
candidates for removal, and a config that names a removed field would stop
the benchmark from measuring the change that removed it.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("grid-sweep", "figure-suite", "oracle")

# Workloads whose configs do not depend on the seed.
SEED_INDEPENDENT = ("oracle",)

_FOUR_PI = 4.0 * math.pi

# Points per axis of the grid-sweep grid.
GRID_POINTS = 70


def _alpha(rng: random.Random) -> dict:
    return {"re": rng.uniform(0.27, 0.33), "im": rng.uniform(0.9, 1.1)}


def _grid_sweep(rng: random.Random) -> list[tuple[str, dict]]:
    return [("fig2a", {
        "experiment": "fig2a",
        "model": {"variant": "QRM-frequency", "omega": 1.0, "g": rng.uniform(0.94, 0.97)},
        "alpha": _alpha(rng),
        "theta0": rng.uniform(0.0, 0.2),
        "sweep": {
            "sqrtDelta_tc": {"start": 0.0, "stop": _FOUR_PI, "points": GRID_POINTS},
            "t_theta": {"start": rng.uniform(0.4, 0.6), "stop": rng.uniform(19.0, 20.0),
                        "points": GRID_POINTS},
        },
    })]


def _figure_suite(rng: random.Random) -> list[tuple[str, dict]]:
    qrm = {"variant": "QRM-frequency", "omega": 1.0, "g": 0.96}

    def jitter(values, width):
        return [v + rng.uniform(-width, width) for v in values]

    return [
        ("fig2b", {
            "experiment": "fig2b", "model": qrm,
            "g_values": jitter([0.8, 0.9, 0.96, 0.98], 0.005),
            "t_theta": rng.uniform(11.0, 13.0), "alpha": _alpha(rng),
            "theta0": rng.uniform(0.0, 0.2),
            "sweep": {"sqrtDelta_tc": {"start": 0.0, "stop": _FOUR_PI, "points": 400}},
        }),
        ("fig2b-inset", {
            "experiment": "fig2b-inset", "model": qrm,
            "t_theta": rng.uniform(11.0, 13.0), "alpha": _alpha(rng),
            "theta0": rng.uniform(0.0, 0.2),
            "sweep": {"g": {"start": rng.uniform(0.38, 0.42), "stop": rng.uniform(0.98, 0.99),
                            "points": 120}},
        }),
        ("fig3a", {
            "experiment": "fig3a", "model": qrm,
            "g_values": jitter([0.9, 0.95, 0.98], 0.005),
            "t_theta": rng.uniform(11.0, 13.0), "alpha": _alpha(rng),
            "theta0": rng.uniform(0.0, 0.2),
            "sweep": {"sqrtDelta_tc": {"start": 0.0, "stop": _FOUR_PI, "points": 400}},
        }),
        # theta0 stays 0 here: it rotates <P> and would change how many zero
        # crossings the bisection refines, i.e. the amount of work.
        ("fig3b", {
            "experiment": "fig3b", "model": qrm,
            "t_theta": rng.uniform(11.0, 13.0), "alpha": _alpha(rng), "theta0": 0.0,
            "sweep": {"g": {"start": rng.uniform(0.78, 0.82), "stop": rng.uniform(0.99, 0.995),
                            "points": 80}},
        }),
        ("lmg-threshold", {
            "experiment": "lmg-threshold",
            "model": {"variant": "LMG-frequency", "omega": 1.0, "lambda": 0.4, "gamma": 2.0},
            "t_theta": rng.uniform(1.285, 1.315), "alpha": _alpha(rng),
            "theta0": rng.uniform(0.0, 0.2), "bracket": [0.2, 0.6],
            "sweep": {"lambda": {"start": 0.2, "stop": 0.6, "points": 81}},
        }),
        ("displacement", {
            "experiment": "displacement",
            "model": {"variant": "QRM-displacement", "omega": 1.0, "g": 0.9},
            "t_theta": rng.uniform(11.0, 13.0), "alpha": _alpha(rng),
            "theta0": rng.uniform(0.0, 0.2),
            "sweep": {"g": {"start": rng.uniform(0.48, 0.52), "stop": rng.uniform(0.98, 0.99),
                            "points": 50}},
        }),
    ]


def _oracle(rng: random.Random) -> list[tuple[str, dict]]:
    return [("validate", {
        "experiment": "validate",
        "model": {"variant": "QRM-frequency", "omega": 1.0, "g": 0.96},
        "alpha": {"re": 0.3, "im": 1.0},
        "oracle": True,
    })]


_BUILDERS = {"grid-sweep": _grid_sweep, "figure-suite": _figure_suite, "oracle": _oracle}


def make(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (experiment, config) pairs of one workload for one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"canp-bench:{workload}:{seed}"))
