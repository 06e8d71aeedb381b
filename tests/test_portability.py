"""The same numbers on every numpy SIMD path and OpenBLAS kernel.

numpy picks its float64 kernels at run time, and OpenBLAS its BLAS kernels.
A child interpreter with every feature numpy dispatches to turned off (the
list is numpy's own: it refuses to disable a baseline feature) and
OpenBLAS's oldest x86 kernels must write the same CSV bytes as a default
child, give validate the same verdicts, and pass the tests that pin a float
bitwise. validate's `measured` digits may differ between the two, so its
reports are compared verdict by verdict, never byte by byte.
"""

import json
import subprocess
import sys
from pathlib import Path

from numpy._core import _multiarray_umath

from canp import validate

ROOT = Path(__file__).resolve().parents[1]
CSV_CONFIGS = ("fig2b_inset", "fig3b", "lmg_threshold", "displacement")
BITWISE_PINS = (
    "tests/test_metrology.py::TestFindThreshold::test_ends_on_adjacent_floats",
    "tests/test_metrology.py::TestGeneratorWeights",
    "tests/test_gaussian.py::TestClosedFormFlow::test_continuity_across_series_switch",
    "tests/test_gaussian.py::TestClosedFormFlow::test_weights_of_an_array_k",
)

# Writes each config's output into argv[1] (a file name's underscores are the
# experiment's hyphens), prints whether any dispatched feature is on, and then
# runs the pytest node ids after argv[1], if any.
CHILD = """
import contextlib, io, sys
from numpy._core import _multiarray_umath as umath
from canp import cli
out, configs, pins = sys.argv[1], {configs!r}, sys.argv[2:]
for name in configs:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([name.replace("_", "-"), "--config", f"configs/{{name}}.json",
                       "--out", f"{{out}}/{{name}}"])
    assert rc == 0, (name, rc)
print(any(umath.__cpu_features__[f] for f in umath.__cpu_dispatch__))
if pins:
    import pytest
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *pins]))
""".format(configs=(*CSV_CONFIGS, "validate"))


def test_every_simd_path_and_blas_kernel_gives_the_same_results(tmp_path, child_env):
    variant = child_env(NPY_DISABLE_CPU_FEATURES=" ".join(_multiarray_umath.__cpu_dispatch__),
                        OPENBLAS_CORETYPE="Prescott")
    runs = {}
    for label, env, pins in (("default", child_env(), ()), ("variant", variant, BITWISE_PINS)):
        (tmp_path / label).mkdir()
        runs[label] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path / label), *pins], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = {label: run.communicate(timeout=120) for label, run in runs.items()}
    for label, run in runs.items():
        assert run.returncode == 0, outputs[label]
    assert outputs["variant"][0].startswith("False\n"), outputs["variant"]

    for name in CSV_CONFIGS:
        assert (tmp_path / "variant" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes(), name
    reports = {label: json.loads((tmp_path / label / "validate").read_text())["checks"]
               for label in runs}
    verdicts = {label: [(check["name"], check["passed"]) for check in checks]
                for label, checks in reports.items()}
    assert verdicts["variant"] == verdicts["default"]
    assert all(passed for _, passed in verdicts["variant"])
    for check in reports["variant"]:
        assert validate._check(check["name"], check["measured"], check["tolerance"]).passed
