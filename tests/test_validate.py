import json
import subprocess
import sys

import numpy as np
import pytest

from canp import ModelParams, fock, gaussian, validate
from canp.errors import TruncationNotConvergedError


def test_oracle_checks_split_their_wall_time(monkeypatch):
    # Two cheap grid points; the QFI comparison must report the time it
    # took, and the two checks together the time of the shared pass.
    monkeypatch.setattr(validate, "ORACLE_GRID", ((0.5, 0.0), (0.5, 0.25)))
    clock = {"now": 0.0}

    def tick() -> float:
        clock["now"] += 1.0
        return clock["now"]

    monkeypatch.setattr(validate.time, "monotonic", tick)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert qfi.seconds > 0.0 and moments.seconds > 0.0
    # Each clock read advances 1 s: one read at the start, four per point
    # (point start, QFI start, QFI end, point end), one at the end. So the
    # pass takes 9 s and each point spends 1 of its 3 s on the QFIs.
    assert moments.seconds + qfi.seconds == pytest.approx(9.0)
    assert qfi.seconds == pytest.approx(3.0)


# Each oracle point's converged truncation, and the truncations each H_c
# (keyed by g) is decomposed at on the way there.
ORACLE_DIMS = {
    (0.50, 0.00): 60, (0.50, 0.25): 60, (0.50, 0.50): 60, (0.50, 0.75): 60,
    (0.70, 0.05): 60, (0.70, 0.30): 60, (0.70, 0.55): 60, (0.70, 0.80): 60,
    (0.90, 0.10): 60, (0.90, 0.35): 120, (0.90, 0.60): 120, (0.90, 0.85): 120,
    (0.96, 0.15): 120, (0.96, 0.40): 240, (0.96, 0.65): 240, (0.96, 0.90): 240,
    (0.99, 0.00): 60, (0.99, 0.05): 60, (0.99, 0.125): 240, (0.99, 0.20): 480,
}
HC_DIMS = {0.5: (60,), 0.7: (60,), 0.9: (60, 120), 0.96: (60, 120, 240),
           0.99: (60, 120, 240, 480)}


def test_oracle_pass_builds_each_decomposition_once(propagator_builds, structure_derivations,
                                                    monkeypatch):
    # 20 points at up to four truncations: one build per (H, dim) pair the
    # pass needs, instead of two per point and truncation. The escalation
    # ladder is pinned: which truncation passes the tail check does not
    # depend on how the propagator decomposes H.
    dims = {}
    oracle_point = validate._oracle_point

    def recording(point):
        result = oracle_point(point)
        dims[point] = result["dim"]
        return result

    monkeypatch.setattr(validate, "_oracle_point", recording)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert dims == ORACLE_DIMS
    assert moments.measured["max_dim"] == fock.MAX_DIM == 480
    htheta = ModelParams("QRM-frequency", g=0.5).encoding()
    want = {(htheta, dim) for dim in (60, 120, 240, 480)} | {
        (ModelParams("QRM-frequency", g=g).preparation(), dim)
        for g, hc_dims in HC_DIMS.items() for dim in hc_dims
    }
    assert set(propagator_builds) == want and len(want) == 15
    assert set(propagator_builds.values()) == {1}
    # One Protocol per point gives both its Gaussian state and its exact QFI.
    assert len(structure_derivations) == len(validate.ORACLE_GRID) == 20


def test_oracle_pass_builds_a_matrix_only_to_decompose_it(propagator_builds, monkeypatch):
    # Every expectation is a banded sum, so each dense matrix the pass fills
    # is one eigh input: one per decomposed block of its 15 builds.
    builds, eighs = [], []
    build_matrix, eigh = fock.build_matrix, np.linalg.eigh

    def recording_build(*args):
        builds.append(args)
        return build_matrix(*args)

    def recording_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(fock, "build_matrix", recording_build)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    validate.check_oracle_agreement()
    assert len(builds) == len(eighs) == 22


def test_oracle_report_does_not_depend_on_blas_threads(child_env):
    # The oracle pass in two fresh interpreters, one and two OpenBLAS
    # threads: every measured number and verdict must be the same bits.
    code = (
        "import json\n"
        "from canp import validate\n"
        "print(json.dumps([[r.name, r.passed, r.measured]"
        " for r in validate.check_oracle_agreement()]))\n"
    )
    reports = []
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(OPENBLAS_NUM_THREADS=threads), timeout=120,
                             check=True)
        reports.append(json.loads(out.stdout))
    assert [name for name, _, _ in reports[0]] == ["gaussian_fock_moments", "qfi_three_way"]
    assert all(passed for _, passed, _ in reports[0])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("error, passed", [(1.5e-6, False), (0.5e-6, True)])
def test_oracle_moments_gate_on_what_they_report(monkeypatch, error, passed):
    # Every oracle moment off by error·max(1, n̄): the check passes iff every
    # maximum it reports, each relative to the oracle's scale, is within the
    # tolerance it reports.
    monkeypatch.setattr(validate, "ORACLE_GRID", ((0.5, 0.0), (0.9, 0.35)))
    moments_of = fock.fock_moments

    def perturbed(psi):
        mu, sigma = moments_of(psi)
        shift = error * max(1.0, fock.mean_photon_fock(psi))
        return mu + shift, sigma + shift

    monkeypatch.setattr(fock, "fock_moments", perturbed)
    moments, _ = validate.check_oracle_agreement()
    reported = {key: value for key, value in moments.measured.items() if key != "max_dim"}
    assert set(reported) == {"max_mu_rel", "max_sigma_rel", "max_nbar_rel", "max_varD_rel"}
    assert moments.passed is passed
    assert moments.passed == all(v <= moments.tolerance["moments"] for v in reported.values())


def test_oracle_qfi_starts_at_the_converged_truncation(monkeypatch):
    # Each point's numeric QFI starts at the truncation its state converged
    # at, so every truncation that fails the tail check fails while the
    # state escalates, and none fails again inside qfi_numeric.
    failures = []  # one entry per failed apply: was it inside qfi_numeric?
    inside_qfi = []
    apply, qfi_numeric = fock.Propagator.apply, fock.qfi_numeric

    def recording_apply(self, *args, **kwargs):
        try:
            return apply(self, *args, **kwargs)
        except TruncationNotConvergedError:
            failures.append(bool(inside_qfi))
            raise

    def marked_qfi_numeric(*args, **kwargs):
        inside_qfi.append(True)
        try:
            return qfi_numeric(*args, **kwargs)
        finally:
            inside_qfi.pop()

    monkeypatch.setattr(fock.Propagator, "apply", recording_apply)
    monkeypatch.setattr(fock, "qfi_numeric", marked_qfi_numeric)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert failures and not any(failures)


def test_structural_sanity_derives_one_structure_per_model(structure_derivations,
                                                           monkeypatch):
    # Two models (g = 0 and g = 0.96), one Protocol each.
    flows = []
    init = gaussian.Flow.__init__

    def counting(self, form):
        flows.append(form)
        init(self, form)

    monkeypatch.setattr(gaussian.Flow, "__init__", counting)
    result = validate.check_structural_sanity()
    assert result.passed
    assert len(structure_derivations) <= 2
    # One flow per evolved trajectory (three g values, nine times each),
    # plus the preparation and encoding flows of the two Protocols.
    assert len(flows) == 3 + 2 * 2


def test_run_checks_times_every_check(monkeypatch):
    # Under a clock that ticks on every read, each of the ten results gets
    # a positive time: the single-result checks from run_checks, the two
    # oracle checks from their shared pass.
    monkeypatch.setattr(validate, "ORACLE_GRID", ((0.5, 0.0), (0.5, 0.25)))
    clock = {"now": 0.0}

    def tick() -> float:
        clock["now"] += 1.0
        return clock["now"]

    monkeypatch.setattr(validate.time, "monotonic", tick)
    checks = validate.run_checks()["checks"]
    assert len(checks) == 10
    assert all(check["seconds"] > 0.0 for check in checks)
    # A check called directly is not timed.
    assert validate.check_thresholds().seconds == 0.0
