import json
import subprocess
import sys
from pathlib import Path

import pytest

from canp.errors import ConfigError
from canp.experiments import (
    apply_overrides,
    config_from_dict,
    load_config,
    run_experiment,
    write_csv,
)
from canp import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_config(experiment: str, tmp_path, **extra) -> dict:
    base = {
        "experiment": experiment,
        "model": {"variant": "QRM-frequency", "omega": 1.0, "g": 0.96},
        "alpha": {"re": 0.3, "im": 1.0},
        "t_theta": 12.0,
        "out": str(tmp_path / f"{experiment}.csv"),
    }
    base.update(extra)
    return base


class TestConfigParsing:
    def test_defaults_and_alpha(self, tmp_path):
        cfg = config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 4}}))
        assert cfg.alpha == 0.3 + 1.0j
        assert cfg.theta0 == 0.0

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(small_config("fig2a", tmp_path, banana=1))

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(small_config("fig9", tmp_path))

    def test_sweep_validity_g(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
                "g": {"start": 0.5, "stop": 1.2, "points": 4}}))

    def test_sweep_validity_lambda(self, tmp_path):
        cfg = small_config("lmg-threshold", tmp_path, sweep={
            "lambda": {"start": 0.2, "stop": 1.4, "points": 4}})
        cfg["model"] = {"variant": "LMG-frequency", "lambda": 0.4, "gamma": 2.0}
        with pytest.raises(ConfigError):
            config_from_dict(cfg)

    def test_points_minimum(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
                "g": {"start": 0.5, "stop": 0.9, "points": 1}}))

    def test_missing_axis_surfaces_at_run_time(self, tmp_path):
        cfg = config_from_dict(small_config("fig2a", tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_overrides(self):
        obj = {"model": {"g": 0.9}, "t_theta": 12.0}
        out = apply_overrides(obj, {"model.g": "0.5", "t_theta": "7", "out": "x.csv"})
        assert out["model"]["g"] == 0.5
        assert out["t_theta"] == 7
        assert out["out"] == "x.csv"
        assert obj["model"]["g"] == 0.9  # original untouched

    def test_hash_excludes_out(self, tmp_path):
        sweep = {"g": {"start": 0.5, "stop": 0.9, "points": 4}}
        a = config_from_dict(small_config("fig2b-inset", tmp_path, sweep=sweep))
        b_dict = small_config("fig2b-inset", tmp_path, sweep=sweep)
        b_dict["out"] = str(tmp_path / "elsewhere.csv")
        b = config_from_dict(b_dict)
        assert a.sha256() == b.sha256()

    @pytest.mark.parametrize("field, value", [("dtheta", 1e-4), ("parallelism", 8)])
    def test_removed_fields_are_rejected(self, tmp_path, capsys, field, value):
        # The homodyne CFI is exact and every run is single-process, so
        # neither field could change a number; naming one is an error.
        path = tmp_path / "c.json"
        sweep = {"g": {"start": 0.5, "stop": 0.9, "points": 4}}
        path.write_text(json.dumps(small_config("fig2b-inset", tmp_path, sweep=sweep,
                                                **{field: value})))
        assert cli.main(["fig2b-inset", "--config", str(path)]) == 2
        assert f"unknown config fields: ['{field}']" in capsys.readouterr().err


class TestCsvWriter:
    def test_header_and_floats(self, tmp_path):
        cfg = config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 4}}))
        path = tmp_path / "w.csv"
        write_csv(str(path), cfg, ("x", "flag"), [(0.1, True), (2.0 / 3.0, False)],
                  extra_comments=("note",))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# canp 0.1.0 experiment=fig2b-inset config_sha256=")
        assert lines[1] == "# note"
        assert lines[2] == "x,flag"
        assert lines[3] == "0.1,1"
        # shortest round-trip float formatting
        assert float(lines[4].split(",")[0]) == 2.0 / 3.0


class TestRunners:
    def test_fig2a_commuting_model_never_enhances(self, tmp_path):
        cfg_dict = small_config("fig2a", tmp_path, sweep={
            "sqrtDelta_tc": {"start": 0.0, "stop": 6.0, "points": 5},
            "t_theta": {"start": 2.0, "stop": 20.0, "points": 5},
        })
        cfg_dict["model"]["g"] = 0.0
        rows = run_experiment(config_from_dict(cfg_dict))
        assert len(rows) == 25
        for sdtc, tth, ratio, enhanced in rows:
            assert not enhanced
            if sdtc > 0.0:
                assert ratio < 1.0

    def test_fig2a_enhancement_windows_exist(self, tmp_path):
        rows = run_experiment(config_from_dict(small_config("fig2a", tmp_path, sweep={
            "sqrtDelta_tc": {"start": 0.0, "stop": 12.566370614359172, "points": 30},
            "t_theta": {"start": 0.5, "stop": 20.0, "points": 30},
        })))
        assert any(row[3] for row in rows)

    def test_fig2b_inset_monotone_and_crossing(self, tmp_path):
        rows = run_experiment(config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.45, "stop": 0.99, "points": 40}})))
        ratios = [r for _, r in rows]
        gs = [g for g, _ in rows]
        # strictly increasing toward criticality on g >= 0.6
        tail = [r for g, r in rows if g >= 0.6]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        # unity crossing lands in the reported window
        crossing = next(g for g, r in zip(gs, ratios) if r > 1.0)
        assert abs(crossing - 0.5058) < 0.02

    def test_fig3a_identity_in_rows(self, tmp_path):
        rows = run_experiment(config_from_dict(small_config("fig3a", tmp_path, g_values=[0.9],
            sweep={"sqrtDelta_tc": {"start": 0.0, "stop": 6.28, "points": 12}})))
        for _, _, s, f in rows:
            assert abs(4.0 * 144.0 * s - f) <= 1e-9 * max(1.0, f)

    def test_fig3b_columns_and_crossing_comment(self, tmp_path):
        cfg = config_from_dict(small_config("fig3b", tmp_path, sweep={
            "g": {"start": 0.9, "stop": 0.98, "points": 5}}))
        rows = run_experiment(cfg)
        text = Path(cfg.out).read_text()
        assert "meanP_zero_crossings none" in text
        for g, mean_p, cfi, qfi, ratio in rows:
            assert mean_p < 0.0
            assert 0.8 <= ratio <= 1.0
        # signal slope steepens toward criticality
        slopes = [abs(b[1] - a[1]) for a, b in zip(rows, rows[1:])]
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_lmg_threshold_run(self, tmp_path):
        cfg_dict = small_config("lmg-threshold", tmp_path, t_theta=1.3,
                                bracket=[0.2, 0.6],
                                sweep={"lambda": {"start": 0.2, "stop": 0.6, "points": 9}})
        cfg_dict["model"] = {"variant": "LMG-frequency", "omega": 1.0,
                             "lambda": 0.4, "gamma": 2.0}
        cfg = config_from_dict(cfg_dict)
        rows = run_experiment(cfg)
        header = Path(cfg.out).read_text().splitlines()[1]
        assert header.startswith("# lambda_star=")
        lam_star = float(header.split("=")[1].split()[0])
        assert abs(lam_star - 0.3559) < 0.005
        assert len(rows) == 9

    def test_displacement_run(self, tmp_path):
        cfg_dict = small_config("displacement", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.95, "points": 7}})
        cfg_dict["model"] = {"variant": "QRM-displacement", "omega": 1.0, "g": 0.9}
        rows = run_experiment(config_from_dict(cfg_dict))
        for g, delta_p, formula, exact, ratio in rows:
            assert delta_p == pytest.approx(1.0 - g * g, rel=1e-12)
            # quarter-period point: dropped term vanishes, formula is exact
            assert formula == pytest.approx(exact, rel=1e-10)
            assert ratio > 0.0

    def test_validate_requires_oracle(self, tmp_path):
        cfg_dict = small_config("validate", tmp_path)
        cfg_dict["oracle"] = False
        cfg_dict["out"] = str(tmp_path / "v.json")
        with pytest.raises(ConfigError):
            run_experiment(config_from_dict(cfg_dict))


class TestDeterminism:
    def test_byte_identical_and_parallel_equivalence(self, tmp_path, monkeypatch):
        sweep = {"sqrtDelta_tc": {"start": 0.0, "stop": 12.566370614359172, "points": 12},
                 "t_theta": {"start": 0.5, "stop": 20.0, "points": 12}}
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        cfg1 = config_from_dict(small_config("fig2a", tmp_path, sweep=sweep, out=str(out1)))
        run_experiment(cfg1)
        cfg2 = config_from_dict(small_config("fig2a", tmp_path, sweep=sweep, out=str(out2)))
        run_experiment(cfg2)
        monkeypatch.setenv("CANP_THREADS", "1")
        cfg3 = config_from_dict(small_config("fig2a", tmp_path, sweep=sweep, out=str(out3)))
        run_experiment(cfg3)
        bytes1 = out1.read_bytes()
        assert bytes1 == out2.read_bytes()
        assert bytes1 == out3.read_bytes()  # hash excludes out


class TestCli:
    def test_missing_config_is_config_error(self, tmp_path):
        rc = cli.main(["fig2a", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_invalid_json_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "fig2a", "model": ')
        assert cli.main(["fig2a", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_is_config_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["fig2a", "--config", str(path)]) == 2

    @pytest.mark.parametrize("override", [
        '--t_theta="abc"',
        "--theta0=[1,2]",
        "--bracket=5",
        '--bracket=["a",1]',
        '--alpha.re="x"',
        "--g_values=3",
        "--sweep=3",
        '--oracle="no"',
        # JSON true is not the number 1, NaN, ±inf and integers beyond the
        # float range are not parameter values, a point count must be an
        # integer and the encoding time positive.
        "--t_theta=true",
        "--alpha=true",
        "--model.omega=true",
        "--t_theta=NaN",
        "--theta0=Infinity",
        "--model.g=-Infinity",
        pytest.param("--theta0=1" + "0" * 400, id="--theta0=1e400-as-integer"),
        "--sweep.g.points=2.7",
        "--t_theta=-1",
        "--t_theta=0",
        '--sweep.t_theta={"start": 0, "stop": 20, "points": 3}',
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override):
        config = str(CONFIG_DIR / "fig2b_inset.json")
        rc = cli.main(["fig2b-inset", "--config", config, "--out", str(tmp_path / "x.csv"),
                       override])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_runtime_does_not_import_scipy(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, canp.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_validate_starts_no_worker_process(self, tmp_path):
        # The oracle runs in-process: a validate run must not even import
        # the process-pool machinery.
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"experiment": "validate", "oracle": True,
                                    "model": {"variant": "QRM-frequency", "g": 0.96},
                                    "out": str(tmp_path / "report.json")}))
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from canp import cli, validate\n"
            "validate.ORACLE_GRID = ((0.5, 0.0), (0.5, 0.25))\n"
            f"rc = cli.main(['validate', '--config', {str(path)!r}])\n"
            "print(rc, 'concurrent.futures.process' in sys.modules,"
            " 'multiprocessing' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}, timeout=120, check=True)
        assert out.stdout.splitlines()[-1] == "0 False False"

    def test_bad_override_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 3}})))
        assert cli.main(["fig2b-inset", "--config", str(path), "oops"]) == 2

    def test_small_run_and_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 3}})))
        out = tmp_path / "cli_out.csv"
        rc = cli.main(["fig2b-inset", "--config", str(path),
                       "--out", str(out), "--sweep.g.points=4"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 4  # header comment + columns + rows

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch):
        # Injected fault: one check reports failure -> exit 1, named in report.
        from canp import validate as validate_mod

        def broken_thresholds():
            return validate_mod.CheckResult(name="thresholds", passed=False,
                                            details="injected fault")

        monkeypatch.setattr(validate_mod, "check_thresholds", broken_thresholds)
        path = tmp_path / "v.json"
        cfg = {
            "experiment": "validate",
            "model": {"variant": "QRM-frequency", "g": 0.96},
            "oracle": True,
            "out": str(tmp_path / "report.json"),
        }
        path.write_text(json.dumps(cfg))
        rc = cli.main(["validate", "--config", str(path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["thresholds"]

    def test_validate_success_exit_code(self, tmp_path, monkeypatch):
        from canp import validate as validate_mod

        def all_pass():
            return {"passed": True,
                    "checks": [{"name": "stub", "passed": True, "seconds": 0.0}]}

        monkeypatch.setattr(validate_mod, "run_checks", all_pass)
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "experiment": "validate",
            "model": {"variant": "QRM-frequency", "g": 0.96},
            "oracle": True,
            "out": str(tmp_path / "report.json"),
        }))
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert "config_sha256" in report and "version" in report

    def test_checked_in_configs_parse(self):
        for name in ("fig2a", "fig2b", "fig2b_inset", "fig3a", "fig3b",
                     "lmg_threshold", "displacement", "validate"):
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
            assert cfg.experiment in name.replace("_", "-") or name == "validate"
