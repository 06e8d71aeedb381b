import pytest

from canp import fock, validate
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


def test_oracle_pass_builds_each_decomposition_once(propagator_builds, structure_derivations):
    # 20 points at up to four truncations: one build per (H, dim) pair the
    # pass needs, instead of two per point and truncation.
    moments, qfi = validate.check_oracle_agreement()
    assert moments.passed and qfi.passed
    assert moments.measured["max_dim"] == fock.MAX_DIM
    assert set(propagator_builds.values()) == {1}
    assert sum(propagator_builds.values()) <= 20
    # One Protocol per point gives both its Gaussian state and its exact QFI.
    assert len(structure_derivations) == len(validate.ORACLE_GRID) == 20


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


def test_structural_sanity_derives_one_structure_per_model(structure_derivations):
    # Two models (g = 0 and g = 0.96), one Protocol each.
    result = validate.check_structural_sanity()
    assert result.passed
    assert len(structure_derivations) <= 2


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
