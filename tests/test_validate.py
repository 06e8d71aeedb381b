import json
import subprocess
import sys

import numpy as np
import pytest

from canp import ModelParams, fock, gaussian, validate


def test_oracle_checks_split_their_wall_time(monkeypatch):
    # Two cheap grid rows; the QFI comparison must report the time its QFIs
    # took, and the moment comparison the rest of the shared pass.
    monkeypatch.setattr(validate, "ORACLE_GRID", ((0.5, 0.0), (0.5, 0.25), (0.7, 0.05)))
    clock = {"now": 0.0}

    def tick() -> float:
        clock["now"] += 1.0
        return clock["now"]

    monkeypatch.setattr(validate.time, "monotonic", tick)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert qfi.seconds > 0.0 and moments.seconds > 0.0
    # Each clock read advances 1 s: one read at the start, two per row
    # (QFI start, QFI end), one at the end. So the pass takes 5 s, of which
    # the two rows' QFIs take 2 s.
    assert moments.seconds + qfi.seconds == pytest.approx(5.0)
    assert qfi.seconds == pytest.approx(2.0)


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
    # Five rows, one per g, each escalated once for all its points: each H_c
    # is decomposed once per truncation its row tries, and the diagonal a†a
    # (no eigendecomposition) is rebuilt per row and truncation. The
    # escalation ladder is pinned: which truncation passes the tail check
    # does not depend on how the propagator decomposes H.
    dims = []
    converged_states = fock.converged_states

    def recording(*args, **kwargs):
        states = converged_states(*args, **kwargs)
        dims.extend(dim for dim, _, _ in states)
        return states

    monkeypatch.setattr(fock, "converged_states", recording)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert dict(zip(validate.ORACLE_GRID, dims, strict=True)) == ORACLE_DIMS
    assert moments.measured["max_dim"] == fock.MAX_DIM == 480
    htheta = ModelParams("QRM-frequency", g=0.5).encoding()
    hc_builds = {(ModelParams("QRM-frequency", g=g).preparation(), dim): 1
                 for g, hc_dims in HC_DIMS.items() for dim in hc_dims}
    assert {key: n for key, n in propagator_builds.items() if key[0] != htheta} == hc_builds
    assert {dim: n for (h, dim), n in propagator_builds.items() if h == htheta} == {
        60: 5, 120: 3, 240: 2, 480: 1}
    # One Protocol per row gives its Gaussian states and exact QFIs.
    assert len(structure_derivations) == len(HC_DIMS) == 5


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


def test_oracle_pass_reads_the_qfi_from_its_own_states(monkeypatch):
    # The numeric QFI comes from the prepared states the row's escalation
    # returned: the pass calls neither one-time wrapper.
    def refused(*args, **kwargs):
        raise AssertionError("one-time oracle wrapper called")

    monkeypatch.setattr(fock, "qfi_numeric", refused)
    monkeypatch.setattr(fock, "converged_protocol_state", refused)
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed


def test_oracle_failure_names_the_grid_point(monkeypatch):
    # (0.99, 0.5) needs 960 levels, past fock.MAX_DIM; its row-mate
    # (0.99, 0.05) converges at 60. Both checks fail, and the detail names
    # the point, its stage and the last truncation tried.
    monkeypatch.setattr(validate, "ORACLE_GRID", ((0.5, 0.0), (0.99, 0.05), (0.99, 0.5)))
    moments, qfi = validate.check_oracle_agreement()
    assert not moments.passed and not qfi.passed
    assert moments.details == qfi.details
    assert "at (g, fraction) (0.99, 0.5): " in moments.details
    assert "(0.99, 0.05)" not in moments.details
    assert "dim=480" in moments.details and "(preparation)" in moments.details


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
