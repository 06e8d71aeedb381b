import json
import math
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import canp
from canp.errors import ConfigError, NonFiniteError
from canp.experiments import (
    apply_overrides,
    config_from_dict,
    load_config,
    run_experiment,
    write_csv,
)
from canp import cli, errors, experiments, gaussian, models, validate
from canp.metrology import Protocol

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# The hash each checked-in config's CSVs carry.
PINNED_CONFIG_HASHES = {
    "displacement": "38e0a616f9b331fb982cb398b97e14473611f947d307dbde73a1bf17ab7dc988",
    "fig2a": "090507c07d6c5c8cc66ac5a1df68644c39e5c6c9a271864de900bc67f8c20cbc",
    "fig2b": "6fad42d98b46cff1a337a73d057fdd6e24a8bccba570c28d055255d1f7d6674e",
    "fig2b_inset": "0692709e5deb1a076e6097c44f0aa2892a4ade8d84c7ff76e0e852eb3dca1435",
    "fig3a": "52cb0e94bfadcface6d3d8fe51a7f4fd22ff3b2cf6c65a50d6152b4a5e3a412f",
    "fig3b": "b4f21df45942b9b22133569908477e67dd8f54dbbfbd0c41125b256542de3932",
    "lmg_threshold": "2e8d37c0652de89c06e9b0b46fcce71d58ce99d68df70ee771e7744160741b25",
    "validate": "eb7000c232ec9163fadb7bb0693efa5885402210766b9a8bfdf6d02af172932c",
}


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

    # Every axis an experiment reads (its experiments.TABLE row) is required when the
    # config is read, a time axis as well as a g or λ axis.
    @pytest.mark.parametrize("experiment, given, axis", [
        ("fig2a", (), "sqrtDelta_tc"), ("fig2a", ("sqrtDelta_tc",), "t_theta"),
        ("fig2b", (), "sqrtDelta_tc"), ("fig3a", (), "sqrtDelta_tc"),
    ])
    def test_missing_time_axis_is_found_when_read(self, tmp_path, experiment, given, axis):
        sweep = {name: {"start": 0.5, "stop": 6.0, "points": 3} for name in given}
        extra = {} if experiment == "fig2a" else {"g_values": [0.9]}
        with pytest.raises(ConfigError,
                           match=f"^experiment {experiment} requires sweep axis {axis!r}$"):
            config_from_dict(small_config(experiment, tmp_path, sweep=sweep, **extra))

    # A run whose model values come from a g or λ axis is checked against
    # them when the config is read, so a missing axis is found there.
    @pytest.mark.parametrize("config, axis", [
        ("fig2b_inset.json", "g"), ("fig3b.json", "g"), ("displacement.json", "g"),
        ("lmg_threshold.json", "lambda"),
    ])
    def test_missing_model_axis_is_found_when_read(self, tmp_path, capsys, config, axis):
        message = f"requires sweep axis {axis!r}"
        with pytest.raises(ConfigError, match=message):
            load_config(str(CONFIG_DIR / config), {"sweep": "{}"})
        out = tmp_path / "x.csv"
        experiment = json.loads((CONFIG_DIR / config).read_text())["experiment"]
        assert cli.main([experiment, "--config", str(CONFIG_DIR / config), "--out", str(out),
                         "--sweep={}"]) == 2
        assert f"config error: experiment {experiment} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides(self):
        obj = {"model": {"g": 0.9}, "t_theta": 12.0}
        out = apply_overrides(obj, {"model.g": "0.5", "t_theta": "7", "out": "x.csv"})
        assert out["model"]["g"] == 0.5
        assert out["t_theta"] == 7
        assert out["out"] == "x.csv"
        assert obj["model"]["g"] == 0.9  # original untouched

    def test_config_hashes_are_pinned(self):
        # Each checked-in config keeps the hash its CSVs already carry, so a
        # change to the hashed form fails here instead of relinking outputs.
        assert {p.stem: load_config(str(p)).sha256()
                for p in CONFIG_DIR.glob("*.json")} == PINNED_CONFIG_HASHES

    def test_hashlib_fallback_gives_the_pinned_hashes(self, child_env):
        # An interpreter built without CPython's built-in SHA-256 modules
        # hashes through hashlib, and must write the same headers.
        code = ("import json, sys\n"
                "from pathlib import Path\n"
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from canp.experiments import load_config\n"
                f"paths = Path({str(CONFIG_DIR)!r}).glob('*.json')\n"
                "hashes = {p.stem: load_config(str(p)).sha256() for p in paths}\n"
                "print('hashlib' in sys.modules, json.dumps(hashes))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=60, check=True).stdout
        fell_back, hashes = out.split(" ", 1)
        assert fell_back == "True"
        assert json.loads(hashes) == PINNED_CONFIG_HASHES

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


def _fmt_reference(value) -> str:
    """One cell as write_csv formatted it cell by cell, before it worked by column."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# Signed zeros, subnormals and the largest float next to ordinary finite
# floats; a nan or inf cell is refused (test_non_finite_cell_is_refused).
_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-309, -1.7976931348623157e308)))
_CELLS = {
    "float": _FLOAT,
    "np.float64": _FLOAT.map(np.float64),
    "np.float32": st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
}


@st.composite
def _tables(draw):
    """(column names, rows): each column of one kind of cell, drawn from a few values."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 30))
    columns = []
    for kind in kinds:
        pool = draw(st.lists(_CELLS[kind], min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
    return tuple(f"c{i}" for i in range(len(kinds))), list(zip(*columns))


# The cells of a typed column array, by dtype.
_ARRAY_CELLS = {
    np.float64: _FLOAT,
    np.float32: st.floats(width=32, allow_nan=False, allow_infinity=False),
    np.bool_: st.booleans(),
    np.int64: st.integers(-2**63, 2**63 - 1),
}
_SIGNED_ZEROS = {np.float64: st.sampled_from((0.0, -0.0)),
                 np.float32: st.sampled_from((0.0, -0.0))}


@st.composite
def _array_tables(draw, cells=_ARRAY_CELLS):
    """({name: array}, None): typed column arrays of shapes that broadcast together."""
    dtypes = draw(st.lists(st.sampled_from(list(cells)), min_size=1, max_size=5))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=len(dtypes), max_dims=3,
                                                    max_side=4)).input_shapes
    return {f"c{i}": draw(hnp.arrays(dtype, shape, elements=cells[dtype]))
            for i, (dtype, shape) in enumerate(zip(dtypes, shapes))}, None


def _broadcast_rows(columns: dict) -> list[tuple]:
    """The rows of a table of column arrays: their broadcast cells, in C order."""
    arrays = np.broadcast_arrays(*columns.values())
    return [tuple(a[index] for a in arrays) for index in np.ndindex(arrays[0].shape)]


def _table_rows(table: dict) -> list[tuple]:
    """The rows of a table a runner or write_csv returned."""
    return list(zip(*table.values()))


def _data_lines(path) -> list[str]:
    """The lines of a CSV after its comments and its header."""
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")][1:]


class TestCsvWriter:
    CFG = config_from_dict(small_config("fig2b-inset", Path("."), sweep={
        "g": {"start": 0.5, "stop": 0.9, "points": 4}}))

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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(_tables(), _array_tables()))
    def test_data_lines_match_per_cell_format(self, tmp_path, table):
        # Both forms: row tuples under column names, and broadcasting arrays.
        columns, rows = table
        path = tmp_path / "t.csv"
        written = write_csv(str(path), self.CFG, columns, rows)
        want = [",".join(map(_fmt_reference, row))
                for row in (_broadcast_rows(columns) if rows is None else rows)]
        lines = path.read_text().splitlines()
        assert lines[1] == ",".join(columns)
        assert lines[2:] == want
        # The table returned holds the written values, one per row.
        assert [",".join(map(_fmt_reference, row)) for row in _table_rows(written)] == want

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_array_tables(_SIGNED_ZEROS))
    def test_signed_zeros_keep_their_sign(self, tmp_path, table):
        # Keyed by value, 0.0 and -0.0 would share one text.
        rows = [(0.0, np.float64(0.0)), (-0.0, np.float64(-0.0)), (0.0, np.float64(-0.0))]
        path = tmp_path / "z.csv"
        write_csv(str(path), self.CFG, ("a", "b"), rows)
        assert path.read_text().splitlines()[2:] == ["0.0,0.0", "-0.0,-0.0", "0.0,-0.0"]
        columns, _ = table
        write_csv(str(path), self.CFG, columns)
        assert path.read_text().splitlines()[2:] == [
            ",".join("-0.0" if np.signbit(cell) else "0.0" for cell in row)
            for row in _broadcast_rows(columns)]

    @pytest.mark.parametrize("cells, kinds", [
        ((1.5, True, np.float64(-0.0)), "bool, float, float64"),
        ((np.int64(2), np.float64(2.0)), "float64, int64"),
        ((np.int64(-1), np.uint64(2**63)), "int64, uint64"),
        ((1.0, 3), "float, int"),
    ])
    def test_mixed_column_is_refused(self, tmp_path, cells, kinds):
        # A row column holds one kind of cell: numpy would turn a mixed column
        # into floats or objects, changing what some cells print.
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=f"^column b holds {kinds} cells; a row column"):
            write_csv(str(path), self.CFG, ("a", "b"), [(0.5, cell) for cell in cells])
        assert not path.exists()

    @pytest.mark.parametrize("cells", [(2**63, -1), (2**70, 3), (1, 2)])
    def test_python_int_column_is_refused(self, tmp_path, cells):
        # numpy would hold 2**63 and -1 together as float64, and 2**70 as no int dtype.
        path = tmp_path / "i.csv"
        with pytest.raises(ValueError, match="^column a holds int cells; a row column"):
            write_csv(str(path), self.CFG, ("a",), [(cell,) for cell in cells])
        assert not path.exists()

    @pytest.mark.parametrize("column", [np.array([1.0, "x"], dtype=object),
                                        np.array([1 + 2j]), np.array(["x"])])
    def test_column_array_of_another_dtype_is_refused(self, tmp_path, column):
        path = tmp_path / "o.csv"
        with pytest.raises(ValueError, match=f"^column a is a {column.dtype} array"):
            write_csv(str(path), self.CFG, {"a": column, "b": np.zeros(column.shape)})
        with pytest.raises(ValueError, match="^column a holds"):
            write_csv(str(path), self.CFG, ("a",), [(cell,) for cell in column.tolist()])
        assert not path.exists()

    def test_percall_row_table_matches_its_column_form(self, tmp_path):
        # The row form is a conversion into the column form: 200×200 rows of
        # (float, float, float, bool), the benchmark's write_csv table, print
        # the same bytes as the same columns given as arrays.
        rows = [(0.1 * i, 0.5 + 1e-3 * j, 1.0 + 1e-5 * (i * 200 + j), (i + j) % 2 == 0)
                for i in range(200) for j in range(200)]
        names = ("sqrtDelta_tc", "t_theta", "R", "enhanced")
        by_rows, by_columns = tmp_path / "rows.csv", tmp_path / "columns.csv"
        write_csv(str(by_rows), self.CFG, names, rows)
        write_csv(str(by_columns), self.CFG, dict(zip(names, map(np.array, zip(*rows)))))
        assert by_rows.read_bytes() == by_columns.read_bytes()
        assert len(by_rows.read_text().splitlines()) == 2 + 200 * 200

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                      np.float32(math.inf)])
    @pytest.mark.parametrize("first_y", [1.0, 1], ids=["float-column", "mixed-column"])
    def test_non_finite_cell_is_refused(self, tmp_path, cell, first_y):
        rows = [(0.5, first_y, True), (1.5, cell, False), (2.5, cell, True)]
        table = {"x": np.array([0.5, 1.5, 2.5]), "y": np.array([first_y, cell, cell]),
                 "flag": np.array([True, False, True])}
        path = tmp_path / "n.csv"
        text = repr(float(cell))
        for columns, given_rows in ((("x", "y", "flag"), rows), (table, None)):
            if given_rows is not None and isinstance(first_y, int):
                # A row column of a Python int and floats is refused first.
                with pytest.raises(ValueError, match="^column y holds "):
                    write_csv(str(path), self.CFG, columns, given_rows)
                continue
            with pytest.raises(NonFiniteError) as exc:
                write_csv(str(path), self.CFG, columns, given_rows)
            assert str(exc.value) == (f"experiment fig2b-inset: column y is nan or inf in 2 "
                                      f"of 3 rows, first at x=1.5, y={text}, flag=0")
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (3.0,)],
        [(1.0,), (2.0,)],
        [(1.0, 2.0, 3.0)],
    ])
    def test_row_of_wrong_width_is_rejected(self, tmp_path, rows):
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="every row must have 2 cells"):
            write_csv(str(path), self.CFG, ("a", "b"), rows)
        assert not path.exists()

    @pytest.mark.parametrize("a, b", [((2,), (3,)), ((2, 3), (3, 1)), ((2, 1), (4, 3))])
    def test_columns_that_do_not_broadcast_are_rejected(self, tmp_path, a, b):
        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match=r"columns \('a', 'b'\) do not broadcast"):
            write_csv(str(path), self.CFG, {"a": np.zeros(a), "b": np.ones(b, dtype=bool)})
        assert not path.exists()

    def test_header_version_is_the_project_version(self):
        # The version every CSV header prints is the one pyproject.toml declares.
        tomllib = pytest.importorskip("tomllib")
        with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == canp.__version__


class TestRunners:
    def test_fig2a_enhancement_windows_exist(self, tmp_path):
        table = run_experiment(config_from_dict(small_config("fig2a", tmp_path, sweep={
            "sqrtDelta_tc": {"start": 0.0, "stop": 12.566370614359172, "points": 30},
            "t_theta": {"start": 0.5, "stop": 20.0, "points": 30},
        })))
        assert any(table["enhanced"])

    def test_fig2b_inset_monotone_and_crossing(self, tmp_path):
        rows = _table_rows(run_experiment(config_from_dict(small_config(
            "fig2b-inset", tmp_path, sweep={"g": {"start": 0.45, "stop": 0.99, "points": 40}}))))
        ratios = [r for _, r in rows]
        gs = [g for g, _ in rows]
        # strictly increasing toward criticality on g >= 0.6
        tail = [r for g, r in rows if g >= 0.6]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        # unity crossing lands in the reported window
        crossing = next(g for g, r in zip(gs, ratios) if r > 1.0)
        assert abs(crossing - 0.5058) < 0.02

    def test_fig3a_identity_in_rows(self, tmp_path):
        rows = _table_rows(run_experiment(config_from_dict(small_config(
            "fig3a", tmp_path, g_values=[0.9],
            sweep={"sqrtDelta_tc": {"start": 0.0, "stop": 6.28, "points": 12}}))))
        for _, _, s, f in rows:
            assert abs(4.0 * 144.0 * s - f) <= 1e-9 * max(1.0, f)

    def test_fig3b_columns_and_crossing_comment(self, tmp_path):
        cfg = config_from_dict(small_config("fig3b", tmp_path, sweep={
            "g": {"start": 0.9, "stop": 0.98, "points": 5}}))
        rows = _table_rows(run_experiment(cfg))
        text = Path(cfg.out).read_text()
        assert "meanP_zero_crossings none" in text
        for g, mean_p, cfi, qfi, ratio in rows:
            assert mean_p < 0.0
            assert 0.8 <= ratio <= 1.0
        # signal slope steepens toward criticality
        slopes = [abs(b[1] - a[1]) for a, b in zip(rows, rows[1:])]
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))

    # The threshold is sought over the bracket, whichever way the sweep runs.
    @pytest.mark.parametrize("start, stop", [(0.2, 0.6), (0.6, 0.2)])
    def test_lmg_threshold_run(self, tmp_path, start, stop):
        cfg_dict = small_config("lmg-threshold", tmp_path, t_theta=1.3, bracket=[0.2, 0.6],
                                sweep={"lambda": {"start": start, "stop": stop, "points": 9}})
        cfg_dict["model"] = {"variant": "LMG-frequency", "omega": 1.0,
                             "lambda": 0.4, "gamma": 2.0}
        cfg = config_from_dict(cfg_dict)
        rows = _table_rows(run_experiment(cfg))
        header = Path(cfg.out).read_text().splitlines()[1]
        assert header.startswith("# lambda_star=")
        lam_star = float(header.split("=")[1].split()[0])
        assert abs(lam_star - 0.3559) < 0.005
        assert len(rows) == 9

    def test_fig3b_crossing_ends_on_adjacent_floats(self, tmp_path, monkeypatch):
        # The crossing probe of TestPublishedFormsAreRegressionData: one sign
        # change of <P>, refined until <P> changes sign strictly between the
        # crossing and a neighbouring float, without evaluating a bracket end
        # again (plain bisection took 47 evaluations).
        calls = []
        original = experiments._mean_p_at

        def counting(cfg, g):
            calls.append(g)
            return original(cfg, g)

        monkeypatch.setattr(experiments, "_mean_p_at", counting)
        out = tmp_path / "probe.csv"
        assert cli.main(["fig3b", "--config", str(CONFIG_DIR / "fig3b.json"), "--out", str(out),
                         "--sweep.g.points=12", '--alpha={"re": 1.0, "im": 0.3}',
                         "--theta0=1.3"]) == 0
        assert out.read_text().splitlines()[1] == "# meanP_zero_crossing g=0.9836079439444625"
        assert len(calls) == len(set(calls)) == 11
        cfg = load_config(str(CONFIG_DIR / "fig3b.json"), {
            "sweep": '{"g": {"start": 0.8, "stop": 0.995, "points": 12}}',
            "alpha": '{"re": 1.0, "im": 0.3}', "theta0": "1.3"})
        g = 0.9836079439444625
        assert original(cfg, math.nextafter(g, 0.0)) > 0.0 > original(cfg, g)

    def test_fig3b_crossing_is_the_same_on_a_falling_g_axis(self, tmp_path, monkeypatch):
        # Each cell is refined between its ends in increasing order, so the
        # falling axis ends on the same float after the same 11 evaluations.
        calls = []
        original = experiments._mean_p_at

        def counting(cfg, g):
            calls.append(g)
            return original(cfg, g)

        monkeypatch.setattr(experiments, "_mean_p_at", counting)
        runs = []
        for start, stop in ((0.8, 0.995), (0.995, 0.8)):
            calls.clear()
            out = tmp_path / f"from_{start}.csv"
            assert cli.main(["fig3b", "--config", str(CONFIG_DIR / "fig3b.json"),
                             "--out", str(out), "--sweep.g.points=12",
                             '--alpha={"re": 1.0, "im": 0.3}', "--theta0=1.3",
                             f"--sweep.g.start={start}", f"--sweep.g.stop={stop}"]) == 0
            runs.append((out.read_text().splitlines()[1], list(calls)))
        assert runs[0][0] == "# meanP_zero_crossing g=0.9836079439444625"
        assert len(runs[0][1]) == 11
        assert runs[1] == runs[0]

    def test_fig3b_refinement_reads_only_mean_p(self, tmp_path, monkeypatch):
        # Each of the crossing probe's 11 refinement steps builds the final
        # state alone: the homodyne CFI and the QFI are computed once each,
        # for the table's columns, and at no step.
        calls = {"_cfi_homodyne": [], "_qfi": [], "_mean_p_at": []}
        for owner, name in ((Protocol, "_cfi_homodyne"), (Protocol, "_qfi"),
                            (experiments, "_mean_p_at")):
            def counting(*args, _original=getattr(owner, name), _name=name):
                calls[_name].append(args)
                return _original(*args)
            monkeypatch.setattr(owner, name, counting)
        out = tmp_path / "probe.csv"
        assert cli.main(["fig3b", "--config", str(CONFIG_DIR / "fig3b.json"), "--out", str(out),
                         "--sweep.g.points=12", '--alpha={"re": 1.0, "im": 0.3}',
                         "--theta0=1.3"]) == 0
        assert out.read_text().splitlines()[1] == "# meanP_zero_crossing g=0.9836079439444625"
        assert {name: len(made) for name, made in calls.items()} == {
            "_cfi_homodyne": 1, "_qfi": 1, "_mean_p_at": 11}

    def test_fig3b_refinement_reads_the_table_phase(self, tmp_path, monkeypatch):
        # The crossing refinement places t_c by the rule the rows are placed
        # by: with fig3b's phase moved to a quarter period, ⟨P⟩ at each row's
        # g is still that row's meanP, bit for bit.
        monkeypatch.setitem(experiments.TABLE, "fig3b",
                            experiments.TABLE["fig3b"]._replace(phase=0.5 * math.pi))
        cfg = config_from_dict(small_config("fig3b", tmp_path, sweep={
            "g": {"start": 0.9, "stop": 0.98, "points": 3}}))
        table = run_experiment(cfg)
        assert [experiments._mean_p_at(cfg, g) for g in table["g"].tolist()] == \
            table["meanP"].tolist()

    def test_displacement_run(self, tmp_path):
        cfg_dict = small_config("displacement", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.95, "points": 7}})
        cfg_dict["model"] = {"variant": "QRM-displacement", "omega": 1.0, "g": 0.9}
        rows = _table_rows(run_experiment(config_from_dict(cfg_dict)))
        for g, delta_p, formula, exact, ratio in rows:
            assert delta_p == pytest.approx(1.0 - g * g, rel=1e-12)
            # quarter-period point: dropped term vanishes, formula is exact
            assert formula == pytest.approx(exact, rel=1e-10)
            assert ratio > 0.0

    # A commuting pair has no √Δ, so no preparation time can be placed by
    # √Δ·t_c; the run stops before writing anything and names the model value.
    @pytest.mark.parametrize("config, overrides, value", [
        ("fig2b_inset.json", ["--sweep.g.start=0.0"], "g=0.0"),
        ("fig2a.json", ["--model.g=0"], "g=0"),
        ("lmg_threshold.json", ["--model.gamma=1.0"], "gamma=1.0"),
    ])
    def test_commuting_pair_is_config_error(self, tmp_path, capsys, config, overrides, value):
        out = tmp_path / "x.csv"
        rc = cli.main([Path(config).stem.replace("_", "-"), "--config", str(CONFIG_DIR / config),
                       "--out", str(out), *overrides])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model ")
        assert value in err and "the pair commutes" in err
        assert not out.exists()

    # lmg-threshold finds the threshold before it sweeps: a bracket without
    # a crossing, or a commuting model, stops the run after at most the two
    # bracket ends instead of the whole 81-row sweep.
    @pytest.mark.parametrize("override, message", [
        ("--bracket=[0.2,0.3]", "config error: enhancement ratio − 1 has the same sign"),
        ("--model.gamma=1.0", "config error: model variant=LMG-frequency"),
    ])
    def test_lmg_threshold_checks_the_bracket_before_the_sweep(
            self, tmp_path, capsys, structure_derivations, override, message):
        out = tmp_path / "x.csv"
        rc = cli.main(["lmg-threshold", "--config", str(CONFIG_DIR / "lmg_threshold.json"),
                       "--out", str(out), override])
        assert rc == 2 and capsys.readouterr().err.startswith(message)
        assert 1 <= len(structure_derivations) <= 2
        assert not out.exists()

    # One derivation per model value a run builds. lmg-threshold's 91 are its
    # 81 rows, 8 refinement steps and both bracket ends, which repeat the
    # first and last rows; validate's are its five oracle grid rows and
    # every check that builds a Protocol, the thresholds' 13 + 10 R
    # evaluations among them.
    @pytest.mark.parametrize("name, derivations", [
        ("fig2a", 1), ("fig2b", 4), ("fig2b_inset", 120), ("fig3a", 3), ("fig3b", 80),
        ("lmg_threshold", 91), ("displacement", 50), ("validate", 47),
    ])
    def test_structure_derivation_counts(self, tmp_path, structure_derivations,
                                         name, derivations):
        cfg = load_config(str(CONFIG_DIR / f"{name}.json"),
                          {"out": json.dumps(str(tmp_path / f"{name}.out"))})
        run_experiment(cfg)
        assert len(structure_derivations) == derivations

    def test_fig3b_computes_each_final_state_once(self, tmp_path, monkeypatch):
        applied = []
        original = gaussian.Flow.apply

        def counting(self, m, t):
            applied.append(t)
            return original(self, m, t)

        monkeypatch.setattr(gaussian.Flow, "apply", counting)
        cfg = load_config(str(CONFIG_DIR / "fig3b.json"),
                          {"out": json.dumps(str(tmp_path / "fig3b.csv"))})
        # One preparation and one encoding for the whole sweep: its 80 model
        # values are one leading axis of a single Protocol's arrays.
        assert len(run_experiment(cfg)["g"]) == 80
        assert len(applied) == 2

    # Each CSV experiment on a small config; the grids are not square, so a
    # transposed block or swapped axes change the rows.
    SMALL = {
        "fig2a": {"sweep": {"sqrtDelta_tc": {"start": 0.0, "stop": 6.0, "points": 3},
                            "t_theta": {"start": 0.5, "stop": 20.0, "points": 4}}},
        "fig2b": {"g_values": [0.8, 0.9],
                  "sweep": {"sqrtDelta_tc": {"start": 0.5, "stop": 6.0, "points": 3}}},
        "fig2b-inset": {"sweep": {"g": {"start": 0.5, "stop": 0.9, "points": 3}}},
        "fig3a": {"g_values": [0.9, 0.95],
                  "sweep": {"sqrtDelta_tc": {"start": 0.5, "stop": 6.0, "points": 3}}},
        "fig3b": {"sweep": {"g": {"start": 0.9, "stop": 0.98, "points": 4}}},
        "lmg-threshold": {"t_theta": 1.3, "bracket": [0.2, 0.6],
                          "model": {"variant": "LMG-frequency", "lambda": 0.4, "gamma": 2.0},
                          "sweep": {"lambda": {"start": 0.2, "stop": 0.6, "points": 3}}},
        "displacement": {"model": {"variant": "QRM-displacement", "g": 0.9},
                         "sweep": {"g": {"start": 0.5, "stop": 0.95, "points": 3}}},
    }

    @pytest.mark.parametrize("experiment", SMALL)
    def test_csv_is_the_returned_table(self, tmp_path, experiment):
        cfg = config_from_dict(small_config(experiment, tmp_path, **self.SMALL[experiment]))
        table = run_experiment(cfg)
        lines = [line for line in Path(cfg.out).read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == ",".join(table)
        assert {column.shape for column in table.values()} == {(len(lines) - 1,)}
        assert lines[1:] == [",".join(map(_fmt_reference, row)) for row in _table_rows(table)]

    def test_fig2a_rows_run_sqrt_delta_tc_first(self, tmp_path):
        cfg = config_from_dict(small_config("fig2a", tmp_path, **self.SMALL["fig2a"]))
        table = run_experiment(cfg)
        sdtc, tth = cfg.axis("sqrtDelta_tc").values(), cfg.axis("t_theta").values()
        assert np.array_equal(table["sqrtDelta_tc"], np.repeat(sdtc, len(tth)))
        assert np.array_equal(table["t_theta"], np.tile(tth, len(sdtc)))
        protocol = Protocol(*cfg.model.pair(), cfg.alpha)
        for x, t_theta, ratio, enhanced in _table_rows(table):
            want = protocol.ratio(protocol.preparation_time(x), t_theta, cfg.theta0)
            assert (ratio, enhanced) == (want, want > 1.0)

    @pytest.mark.parametrize("experiment, columns", [("fig2b", ("R",)), ("fig3a", ("S", "F"))])
    def test_g_blocks_run_g_first(self, tmp_path, experiment, columns):
        cfg = config_from_dict(small_config(experiment, tmp_path, **self.SMALL[experiment]))
        table = run_experiment(cfg)
        sdtc = cfg.axis("sqrtDelta_tc").values()
        assert np.array_equal(table["g"], np.repeat(cfg.g_values, len(sdtc)))
        assert np.array_equal(table["sqrtDelta_tc"], np.tile(sdtc, len(cfg.g_values)))
        for i, (g, x) in enumerate(zip(table["g"], table["sqrtDelta_tc"])):
            protocol = Protocol(*cfg.model._replace(g=float(g)).pair(), cfg.alpha)
            t_c = protocol.preparation_time(x)
            want = {"R": protocol.ratio(t_c, cfg.t_theta, cfg.theta0),
                    "S": protocol.skew(t_c), "F": protocol.qfi(t_c, cfg.t_theta)}
            assert [table[name][i] for name in columns] == [want[name] for name in columns]

    def test_validate_requires_oracle(self, tmp_path):
        cfg_dict = small_config("validate", tmp_path)
        cfg_dict["oracle"] = False
        cfg_dict["out"] = str(tmp_path / "v.json")
        with pytest.raises(ConfigError):
            run_experiment(config_from_dict(cfg_dict))


def _data(cfg) -> list[str]:
    """What a run's data are: its CSV lines after the provenance line (the
    comments, header and rows), or its validate report without the config
    hash and the timings."""
    result = run_experiment(cfg)
    if cfg.experiment != "validate":
        return Path(cfg.out).read_text().splitlines()[1:]
    checks = [{k: v for k, v in check.items() if k != "seconds"} for check in result["checks"]]
    kept = {k: v for k, v in result.items() if k not in ("seconds", "config_sha256")}
    return [json.dumps({**kept, "checks": checks}, sort_keys=True)]


# The parameter fields each run's data depend on. The others cannot change
# them: the swept model field (g or lambda), which the sweep replaces; fig2a's
# t_theta field, whose place its t_theta axis takes; fig3a's theta0;
# lmg-threshold's omega; displacement's theta0 and alpha, because its X
# encoding's QFI and baseline do not depend on the probe amplitude (alpha is
# still read there, by the vacuum-probe refusal); and all of validate's, whose
# checks fix their own. R itself does not depend on theta0 (TestRatioStructure):
# theta0 moves the R cells of fig2a, fig2b, fig2b-inset and lmg-threshold only
# in their last bits, where the encoded state is rounded.
READS = {
    "fig2a": ("theta0", "alpha", "model.omega", "model.g"),
    "fig2b": ("t_theta", "theta0", "alpha", "model.omega"),
    "fig2b-inset": ("t_theta", "theta0", "alpha", "model.omega"),
    "fig3a": ("t_theta", "alpha", "model.omega"),
    "fig3b": ("t_theta", "theta0", "alpha", "model.omega"),
    "lmg-threshold": ("t_theta", "theta0", "alpha", "model.gamma"),
    "displacement": ("t_theta", "model.omega"),
    "validate": (),
}


class TestExperimentTable:
    # Each parameter field moved away from its value in TestRunners.SMALL, to
    # a value that keeps lmg-threshold's sign change of R - 1 inside its
    # bracket (t_theta = 7.5, gamma = 1.5 or alpha = 2 - i would lose it and
    # exit 2). alpha moves to a probe of another phase and to a faint one.
    MOVES = (("t_theta", 1.31), ("theta0", 1.0), ("alpha", {"re": 0.6, "im": -0.8}),
             ("alpha", 0.001), ("model.omega", 1.3), ("model.g", 0.7), ("model.lambda", 0.45),
             ("model.gamma", 2.01))

    @pytest.mark.parametrize("experiment", READS)
    def test_data_depend_on_the_fields_read_and_no_other(self, tmp_path, experiment):
        obj = small_config(experiment, tmp_path, **TestRunners.SMALL.get(
            experiment, {"oracle": True, "out": str(tmp_path / "report.json")}))
        lmg = obj["model"]["variant"] == "LMG-frequency"
        model_fields = ("model.omega", *(("model.lambda", "model.gamma") if lmg else ("model.g",)))
        base = _data(config_from_dict(obj))
        wrong = []
        for i, (field, value) in enumerate(self.MOVES):
            if field.startswith("model.") and field not in model_fields:
                continue
            moved = apply_overrides(obj, {field: json.dumps(value)})
            moved["out"] = str(Path(obj["out"]).with_stem(f"moved{i}"))
            if (_data(config_from_dict(moved)) != base) is not (field in READS[experiment]):
                wrong.append((field, value))
        assert wrong == []

    # Each sweep row's cells at a point are bitwise the same in the checked-in
    # grid and in a grid of two points along each axis (and two g_values, in
    # the other order), all taken from it. fig2a also keeps either axis whole:
    # its 200 x 2 and 2 x 200 grids.
    @pytest.mark.parametrize("experiment", [name for name, row in experiments.TABLE.items()
                                            if row.columns])
    def test_cells_do_not_depend_on_the_grid(self, tmp_path, experiment):
        def cells(cfg) -> dict:
            """{a row's grid cells: the reprs of all its cells} of a run."""
            table = {name: column.tolist() for name, column in run_experiment(cfg).items()}
            grid = [table[name] for name in ("g", "lambda", "sqrtDelta_tc", "t_theta")
                    if name in table]
            return {point: repr(row) for point, row in zip(zip(*grid), zip(*table.values()))}

        path = str(CONFIG_DIR / f"{experiment.replace('-', '_')}.json")
        cfg = load_config(path, {"out": json.dumps(str(tmp_path / "full.csv"))})
        full = cells(cfg)
        axes = {ax.name: ax._asdict() for ax in cfg.sweep}
        for ax in axes.values():
            del ax["name"]
        pairs = {ax.name: {"start": ax.values()[1], "stop": ax.values()[ax.points // 2],
                           "points": 2} for ax in cfg.sweep}
        for whole in [None, *(axes if len(axes) > 1 else ())]:
            overrides = {"sweep": json.dumps({name: axes[name] if name == whole else pairs[name]
                                              for name in axes}),
                         "out": json.dumps(str(tmp_path / f"part_{whole}.csv"))}
            if cfg.g_values:
                overrides["g_values"] = json.dumps([cfg.g_values[-1], cfg.g_values[1]])
            part_cfg = load_config(path, overrides)
            part = cells(part_cfg)
            assert len(part) == (math.prod(ax.points for ax in part_cfg.sweep)
                                 * max(1, len(part_cfg.g_values)))
            assert {point: full[point] for point in part} == part


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        sweep = {"sqrtDelta_tc": {"start": 0.0, "stop": 12.566370614359172, "points": 12},
                 "t_theta": {"start": 0.5, "stop": 20.0, "points": 12}}
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg1 = config_from_dict(small_config("fig2a", tmp_path, sweep=sweep, out=str(out1)))
        run_experiment(cfg1)
        cfg2 = config_from_dict(small_config("fig2a", tmp_path, sweep=sweep, out=str(out2)))
        run_experiment(cfg2)
        assert out1.read_bytes() == out2.read_bytes()  # hash excludes out


PUBLISHED_FORMS = ("qrm_delta_frequency", "qrm_delta_displacement", "lmg_delta",
                   "qrm_commutator_c", "qrm_commutator_d", "lmg_commutator_d")
REGRESSION_CHECKS = {"check_algebraic_criterion", "check_operator_constants"}


def guard_published_forms(monkeypatch):
    """Make every published closed form raise unless a validate regression check reads it."""

    def guard(original):
        def guarded(*args, **kwargs):
            if REGRESSION_CHECKS.isdisjoint(frame.name for frame in traceback.extract_stack()):
                raise AssertionError(f"the runtime read the published {original.__name__}")
            return original(*args, **kwargs)
        return guarded

    for module in (models, validate):
        for name in PUBLISHED_FORMS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, guard(getattr(module, name)))
    monkeypatch.setattr(models.ModelParams, "published_delta",
                        guard(models.ModelParams.published_delta))


class TestPublishedFormsAreRegressionData:
    """The runtime takes Δ, C and D from the derived algebra only."""

    @pytest.mark.parametrize("name, overrides", [
        ("fig2a", ["--sweep.sqrtDelta_tc.points=9", "--sweep.t_theta.points=7"]),
        ("fig2b", ["--sweep.sqrtDelta_tc.points=20"]),
        ("fig2b_inset", ["--sweep.g.points=12"]),
        ("fig3a", ["--sweep.sqrtDelta_tc.points=20"]),
        # This probe turns ⟨P⟩ through zero once, so the crossing refinement runs too.
        ("fig3b", ["--sweep.g.points=12", '--alpha={"re": 1.0, "im": 0.3}', "--theta0=1.3"]),
        ("lmg_threshold", ["--sweep.lambda.points=9"]),
        ("displacement", ["--sweep.g.points=7"]),
    ])
    def test_figures_run_without_them(self, tmp_path, monkeypatch, name, overrides):
        def run(out):
            args = [name.replace("_", "-"), "--config", str(CONFIG_DIR / f"{name}.json"),
                    "--out", str(out), *overrides]
            assert cli.main(args) == 0
            return out.read_bytes()

        plain = run(tmp_path / "plain.csv")
        assert name != "fig3b" or b"meanP_zero_crossing g=" in plain
        with monkeypatch.context() as guarded:
            guard_published_forms(guarded)
            assert run(tmp_path / "guarded.csv") == plain

    def test_validate_reads_them_only_in_its_regression_checks(self, monkeypatch):
        guard_published_forms(monkeypatch)
        monkeypatch.setattr(validate, "ORACLE_GRID", validate.ORACLE_GRID[::5])
        report = validate.run_checks()
        assert report["passed"], [c["name"] for c in report["checks"] if not c["passed"]]
        assert len(report["checks"]) == 10


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
        # A quoted number is a string, not a number.
        '--t_theta="12"',
        "--theta0=[1,2]",
        "--bracket=5",
        '--bracket=["a",1]',
        '--alpha.re="x"',
        # Every config object rejects a key it does not know.
        '--alpha={"re": 0.3, "img": 1.0}',
        "--sweep.g.pionts=7",
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
        # A threshold bracket must be an increasing interval.
        "--bracket=[0.6,0.2]",
        "--bracket=[0.4,0.4]",
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override):
        config = str(CONFIG_DIR / "fig2b_inset.json")
        rc = cli.main(["fig2b-inset", "--config", config, "--out", str(tmp_path / "x.csv"),
                       override])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # An empty g list is refused, not replaced by the default g values.
    @pytest.mark.parametrize("experiment", ["fig2b", "fig3a"])
    def test_empty_g_values_is_config_error(self, tmp_path, capsys, experiment):
        out = tmp_path / "x.csv"
        assert cli.main([experiment, "--config", str(CONFIG_DIR / f"{experiment}.json"),
                         "--out", str(out), "--g_values=[]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad config g_values []: ")
        assert not out.exists()

    # Each model value a run reads is checked at config time against its
    # variant: the field must exist and the model's own phase rule must hold.
    @pytest.mark.parametrize("config, overrides, message", [
        ("fig2b_inset.json", ['--model={"variant": "LMG-frequency", "lambda": 0.4, "gamma": 2}'],
         "LMG-frequency has no g"),
        ("fig2b.json", ['--model={"variant": "LMG-frequency", "lambda": 0.4, "gamma": 2}'],
         "LMG-frequency has no g"),
        ("lmg_threshold.json", ["--model.variant=QRM-frequency", "--model.g=0.96"],
         "QRM-frequency has no lambda"),
        ("displacement.json", ["--model.variant=QRM-frequency"], "needs variant QRM-displacement"),
        ("fig2a.json", ["--model.g=1.2"], "g=1.2"),
        ("lmg_threshold.json", ["--sweep.lambda.start=0.5", "--sweep.lambda.stop=2.5"],
         "lambda=1.0"),
        ("fig2b.json", ["--g_values=[0.5,1.0]"], "g=1.0"),
        ("lmg_threshold.json", ["--bracket=[0.2,1.5]"], "lambda=1.5"),
        # Both ends lie in the normal phase at gamma = 2, but the ordered
        # phase 1 < lambda < 2 lies in between: refused before any R is read.
        ("lmg_threshold.json", ["--bracket=[0.2,3.0]", "--t_theta=3"],
         "bracket (0.2, 3.0) leaves the normal phase"),
        # R − 1 keeps one sign over the bracket: there is no threshold to find.
        ("lmg_threshold.json", ["--bracket=[0.2,0.3]"], "same sign at both ends of (0.2, 0.3)"),
        # A bracket is a pair [lo, hi]; null is not one, and no default stands in.
        ("lmg_threshold.json", ["--sweep.lambda.stop=0.2", "--bracket=null"],
         "bad config bracket None: expected [lo, hi]"),
    ])
    def test_model_value_outside_its_variant_is_config_error(self, tmp_path, capsys, config,
                                                             overrides, message):
        out = tmp_path / "x.csv"
        rc = cli.main([Path(config).stem.replace("_", "-"), "--config", str(CONFIG_DIR / config),
                       "--out", str(out), *overrides])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    # The class of an error decides the exit code: the inputs CANP's gain
    # cannot be read from subclass ConfigError and exit 2; every other
    # CanpError is a run failure and exits 1.
    @pytest.mark.parametrize("error, code", [
        (errors.OutOfPhaseError, 2), (errors.CommutingPairError, 2),
        (errors.VacuumProbeError, 2), (errors.NoSignChangeError, 2),
        (errors.NonFiniteError, 1), (errors.TruncationNotConvergedError, 1),
        (errors.ConditionViolatedError, 1), (errors.NegativeDeltaError, 1),
    ])
    def test_exit_code_follows_the_error_class(self, tmp_path, monkeypatch, capsys, error, code):
        assert issubclass(error, ConfigError) is (code == 2)

        def run_experiment(cfg):
            raise error("refused")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert cli.main(["fig2a", "--config", str(CONFIG_DIR / "fig2a.json"),
                         "--out", str(tmp_path / "x.csv")]) == code
        prefix = "config error" if code == 2 else "run failed"
        assert capsys.readouterr().err == f"{prefix}: refused\n"

    # Valid config values whose run overflows or underflows: each fails with
    # exit 1 naming what is not finite, writes nothing, and numpy prints no
    # warning on the way.
    @pytest.mark.parametrize("experiment, overrides, message, absent", [
        # γ = 1e300: D = [H_c, [H_c, H_θ]] ~ γ² overflows; the run names D,
        # not a non-Hermitian operator.
        ("lmg-threshold", ["--model.gamma=1e300"],
         "critical structure is not finite (D nan or inf)", "Hermitian"),
        # ω = 1e-300: D underflows to 0, and so does det G_c ~ ω², which
        # would read as a gap of 0; the run names Δ and the entries of G_c.
        ("fig2a", ["--model.omega=1e-300"],
         "critical structure is not finite (Δ nan or inf): det G_c of H_c's entries "
         "gxx=7.84e-302, gxp=0, gpp=1e-300 is out of the float range", "Hermitian"),
        # ω = 1e200: C ~ ω is finite, D ~ ω² overflows.
        ("fig2a", ["--model.omega=1e200"],
         "critical structure is not finite (D nan or inf): the nested commutators of H_c "
         "and H_theta are out of the float range", "Hermitian"),
        # t_θ = 1e200: R − 1 is nan at both bracket ends; the run names the
        # bracket, not as a bracket without a sign change.
        ("lmg-threshold", ["--t_theta=1e200"],
         "enhancement ratio − 1 is nan or inf at an end of (0.2, 0.6): nan at 0.2, nan at 0.6",
         "same sign"),
        # The rows overflow to nan or inf.
        ("fig2a", ["--sweep.t_theta.points=5", "--sweep.sqrtDelta_tc.points=5",
                   "--sweep.t_theta.stop=1e200"],
         "experiment fig2a: column R is nan or inf in 20 of 25 rows, "
         "first at sqrtDelta_tc=0.0, t_theta=2.5e+199, R=nan, enhanced=0", None),
        ("fig2a", ["--sweep.t_theta.points=5", "--sweep.sqrtDelta_tc.points=5",
                   '--alpha={"re":1e200,"im":0}'],
         "experiment fig2a: column R is nan or inf in 25 of 25 rows, "
         "first at sqrtDelta_tc=0.0, t_theta=0.5, R=nan, enhanced=0", None),
    ])
    def test_non_finite_result_is_run_failure(self, tmp_path, capsys, experiment, overrides,
                                              message, absent):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([experiment, "--config",
                           str(CONFIG_DIR / f"{experiment.replace('-', '_')}.json"),
                           "--out", str(out), *overrides])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert f"run failed: {message}" in err
        assert absent is None or absent not in err
        assert not out.exists()

    # numpy refuses these sizes before allocating anything: 1e15 points is
    # more memory than it can ask for, 1e20 more cells than it can index. An
    # axis is a config error whether the config (a g or lambda axis) or the
    # run (a time axis) builds it first.
    @pytest.mark.parametrize("config, axis, points", [
        ("fig2b_inset.json", "g", 10**15),
        ("lmg_threshold.json", "lambda", 10**15),
        ("fig2a.json", "t_theta", 10**15),
        ("fig2a.json", "sqrtDelta_tc", 10**20),
        ("fig2b.json", "sqrtDelta_tc", 10**15),
    ])
    def test_unallocatable_sweep_is_named(self, tmp_path, capsys, config, axis, points):
        out = tmp_path / "x.csv"
        assert cli.main([Path(config).stem.replace("_", "-"), "--config", str(CONFIG_DIR / config),
                         "--out", str(out), f"--sweep.{axis}.points={float(points)!r}"]) == 2
        assert capsys.readouterr().err == (f"config error: sweep axis {axis!r} of {points} "
                                           f"points does not fit in memory\n")
        assert not out.exists()

    # Axes that each fit can still give a result block that does not: that
    # is a run failure naming the experiment, raised here without asking
    # numpy for the memory.
    def test_unallocatable_result_is_run_failure(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("cannot allocate the result block")

        monkeypatch.setattr(experiments, "sweep", no_memory)
        out = tmp_path / "x.csv"
        assert cli.main(["fig2a", "--config", str(CONFIG_DIR / "fig2a.json"),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: experiment fig2a: ") and err.count("\n") == 1
        assert not out.exists()

    # A grid input the experiment does not read is refused before any model
    # value is checked: these out-of-phase values are never reached.
    TIME_AXES = {"sqrtDelta_tc": {"start": 0.0, "stop": 6.0, "points": 3},
                 "t_theta": {"start": 0.5, "stop": 20.0, "points": 3}}

    @pytest.mark.parametrize("experiment, extra, unread", [
        ("fig2a", {"g_values": [1.5], "bracket": [0.2, 3.0],
                   "sweep": {**TIME_AXES, "lambda": {"start": 0.5, "stop": 2.5, "points": 3}}},
         "sweep axis 'lambda'"),
        ("fig2b", {"g_values": [0.9], "bracket": [0.2, 1.5],
                   "sweep": {"sqrtDelta_tc": TIME_AXES["sqrtDelta_tc"],
                             "g": {"start": 0.5, "stop": 1.5, "points": 3}}},
         "sweep axis 'g'"),
        ("displacement", {"g_values": [1.5], "bracket": [0.2, 1.5],
                          "model": {"variant": "QRM-displacement", "g": 0.9},
                          "sweep": {"g": {"start": 0.5, "stop": 0.9, "points": 3}}},
         "g_values"),
    ])
    def test_unread_fields_are_refused(self, tmp_path, experiment, extra, unread):
        with pytest.raises(ConfigError, match=f"^experiment {experiment} does not read {unread}$"):
            config_from_dict(small_config(experiment, tmp_path, **extra))

    # The grid inputs of each experiment are exactly those its experiments.TABLE
    # row names: a missing one or another exits 2 naming the experiment and the
    # input, before anything is written. A null bracket is a malformed one.
    AXIS = '{"start": 0.5, "stop": 0.6, "points": 3}'

    @pytest.mark.parametrize("config, drop, overrides, message", [
        ("fig2b", None, [f"--sweep.g={AXIS}"], "experiment fig2b does not read sweep axis 'g'"),
        ("fig2b_inset", None, [f"--sweep.sqrtDelta_tc={AXIS}"],
         "experiment fig2b-inset does not read sweep axis 'sqrtDelta_tc'"),
        ("fig2a", None, ["--g_values=[0.1]"], "experiment fig2a does not read g_values"),
        ("fig2a", None, ["--bracket=[0.1,0.2]"], "experiment fig2a does not read bracket"),
        ("displacement", None, ["--g_values=[0.5]"],
         "experiment displacement does not read g_values"),
        ("validate", None, [f"--sweep.g={AXIS}"], "experiment validate does not read sweep axis 'g'"),
        ("fig2b", "g_values", [], "experiment fig2b requires g_values"),
        ("fig3a", "g_values", [], "experiment fig3a requires g_values"),
        ("lmg_threshold", "bracket", [], "experiment lmg-threshold requires bracket"),
        ("lmg_threshold", None, ["--bracket=null"], "bad config bracket None: expected [lo, hi]"),
    ])
    def test_grid_inputs_are_the_ones_read(self, tmp_path, capsys, config, drop, overrides,
                                           message):
        obj = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        obj.pop(drop, None)
        path, out = tmp_path / "c.json", tmp_path / "x.out"
        path.write_text(json.dumps(obj))
        assert cli.main([obj["experiment"], "--config", str(path), "--out", str(out),
                         *overrides]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_runs_load_only_what_they_need(self, tmp_path, child_env):
        # Three children: a bare interpreter, start-up, and a small CSV run
        # followed by a two-point validate. Each prints the watched modules
        # it has loaded. A module the bare interpreter's site step already
        # loads cannot be told apart, so it is exempt at every stage.
        # No start-up or run loads scipy (the runtime is numpy only);
        # argparse, gettext or locale (the command line is read by hand);
        # dataclasses or copy (records are named tuples or slotted classes);
        # hashlib or _hashlib (the config hash uses CPython's built-in
        # SHA-256, so OpenSSL stays unmapped); the process-pool machinery or
        # numpy.random (every run is single-process and validate's draws are
        # stdlib-seeded).
        never = ("scipy", "argparse", "gettext", "locale", "dataclasses", "copy", "hashlib",
                 "_hashlib", "concurrent.futures.process", "multiprocessing", "numpy.random")
        # Only a validate run needs the number-basis oracle and its checks.
        oracle = ("canp.fock", "canp.validate")
        watched = never + oracle
        csv_config, validate_config = tmp_path / "c.json", tmp_path / "v.json"
        csv_config.write_text(json.dumps(small_config(
            "fig2b-inset", tmp_path, sweep={"g": {"start": 0.5, "stop": 0.9, "points": 3}})))
        validate_config.write_text(json.dumps({
            "experiment": "validate", "oracle": True,
            "model": {"variant": "QRM-frequency", "g": 0.96},
            "out": str(tmp_path / "report.json")}))
        report = f"print(*(name for name in {watched!r} if name in sys.modules))\n"
        runs = (
            "from canp import cli, validate\n"
            "validate.ORACLE_GRID = ((0.5, 0.0), (0.5, 0.25))\n"
            f"print(cli.main(['fig2b-inset', '--config', {str(csv_config)!r}]),\n"
            f"      cli.main(['validate', '--config', {str(validate_config)!r}]))\n"
        )
        bare, start_up, run = (
            subprocess.run([sys.executable, "-c", "import sys\n" + body + report],
                           capture_output=True, text=True, env=child_env(), timeout=120,
                           check=True).stdout.splitlines()
            for body in ("", "import canp.cli\n", runs))
        preloaded = set(bare[-1].split())
        assert run[-2] == "0 0"
        assert set(start_up[-1].split()) - preloaded == set()
        assert set(run[-1].split()) - preloaded == set(oracle)

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

    CONFIG = str(CONFIG_DIR / "fig2b_inset.json")

    # Each bad command line prints the usage line and one config error line
    # naming the argument, exits 2 and writes nothing. Flags are not
    # abbreviated, so --conf is a bad argument, not --config.
    @pytest.mark.parametrize("args, rc, named", [
        pytest.param(["--version"], 0, None, id="version"),
        pytest.param(["--help"], 0, None, id="help"),
        pytest.param(["fig2b-inset", "-h", "--config"], 0, None, id="help-ends-the-line"),
        pytest.param([], 2, "missing the experiment", id="no-arguments"),
        pytest.param(["fig3c", "--config", CONFIG, "--out", "x.csv"], 2,
                     "unknown experiment 'fig3c'", id="unknown-experiment"),
        pytest.param(["fig2b-inset", "--out", "x.csv"], 2, "missing --config PATH",
                     id="no-config"),
        pytest.param(["fig2b-inset", "--out", "x.csv", "--config"], 2,
                     "--config needs a value", id="config-last"),
        pytest.param(["fig2b-inset", "--config", CONFIG, "--out"], 2, "--out needs a value",
                     id="out-last"),
        pytest.param(["fig2b-inset", "--config", CONFIG, "--out", "x.csv", "extra"], 2,
                     "'extra'", id="extra-word"),
        pytest.param(["fig2b-inset", "--config", CONFIG, "--out", "x.csv", "--model.g"], 2,
                     "'--model.g'", id="key-without-value"),
        pytest.param(["fig2b-inset", "--conf", CONFIG, "--out", "x.csv"], 2, "'--conf'",
                     id="flag-prefix"),
        # An override of the experiment would run another experiment's table
        # into this one's output.
        pytest.param(["fig2b-inset", "--config", CONFIG, "--out", "x.csv", '--experiment="fig3a"'],
                     2, """'--experiment="fig3a"': the experiment is the positional argument""",
                     id="experiment-override"),
    ])
    def test_command_line(self, tmp_path, monkeypatch, capsys, args, rc, named):
        monkeypatch.chdir(tmp_path)
        assert cli.main(args) == rc
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        if rc == 0:
            assert err == ""
            expected = (f"canp {canp.__version__}" if args == ["--version"]
                        else f"usage: canp {{{','.join(experiments.EXPERIMENTS)}}} --config PATH")
            assert out.startswith(expected)
        else:
            errors = [line for line in err.splitlines() if line.startswith("config error:")]
            assert err.startswith("usage: canp {fig2a,")
            assert len(errors) == 1 and named in errors[0]

    def test_config_and_out_forms_write_the_same_bytes(self, tmp_path, monkeypatch):
        # --config=PATH is --config PATH. --out PATH is a raw path and
        # --out=value an ordinary override: JSON text where it parses, so a
        # quoted path names the same file, and plain text otherwise.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x.csv"
        assert cli.main(["fig2b-inset", "--config", self.CONFIG, "--out", str(out)]) == 0
        expected = out.read_bytes()
        for args in (["--config", self.CONFIG, f"--out={out}"],
                     ["--config", self.CONFIG, f"--out={json.dumps(str(out))}"],
                     [f"--config={self.CONFIG}", "--out", str(out)]):
            out.unlink()
            assert cli.main(["fig2b-inset", *args]) == 0
            assert out.read_bytes() == expected
            assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("out", [None, 5])
    def test_output_that_is_not_a_path_is_config_error(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config("fig2b-inset", tmp_path, out=out, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 3}})))
        assert cli.main(["fig2b-inset", "--config", str(path)]) == 2
        assert f"bad config out {out!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("experiment", ["fig2b-inset", "validate"])
    @pytest.mark.parametrize("blocked", ["out is a directory", "parent is a file"])
    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch, capsys,
                                               experiment, blocked):
        # Like an unreadable config: exit 2 with a one-line message, no
        # traceback, and found when the config is read, before any work.
        monkeypatch.setitem(experiments.RUNNERS, experiment,
                            lambda cfg: pytest.fail("the run started"))
        path = tmp_path / "c.json"
        extra = ({"oracle": True} if experiment == "validate"
                 else {"sweep": {"g": {"start": 0.5, "stop": 0.9, "points": 3}}})
        path.write_text(json.dumps(small_config(experiment, tmp_path, **extra)))
        if blocked == "out is a directory":
            out = tmp_path / "taken"
            out.mkdir()
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out.csv"
        assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out}")
        assert "Traceback" not in err

    def test_failed_write_is_config_error(self, tmp_path):
        # What only the write can find (here a directory made after the
        # config was read) is a ConfigError too.
        cfg = config_from_dict(small_config("fig2b-inset", tmp_path, sweep={
            "g": {"start": 0.5, "stop": 0.9, "points": 3}}))
        Path(cfg.out).mkdir()
        with pytest.raises(ConfigError, match=f"cannot write output {cfg.out}"):
            write_csv(cfg.out, cfg, ("x",), [(1.0,)])

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch):
        # Injected fault: one check reports failure -> exit 1, named in report.
        from canp import validate as validate_mod

        def broken_thresholds():
            return validate_mod.CheckResult(name="thresholds", passed=False, measured={},
                                            tolerance={}, details="injected fault")

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

    def test_non_finite_report_value_is_run_failure(self, tmp_path, monkeypatch, capsys):
        # json.dumps would write a nan as a bare NaN, which is not JSON: the
        # run fails naming the check and the key, and writes no report.
        from canp import validate as validate_mod

        def nan_thresholds():
            return validate_mod.CheckResult(name="thresholds", passed=False,
                                            measured={"g_star": float("nan")}, tolerance={})

        monkeypatch.setattr(validate_mod, "check_thresholds", nan_thresholds)
        path, out = tmp_path / "v.json", tmp_path / "report.json"
        path.write_text(json.dumps({"experiment": "validate", "oracle": True,
                                    "model": {"variant": "QRM-frequency", "g": 0.96},
                                    "out": str(out)}))
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert ("run failed: experiment validate: check thresholds measured g_star=nan, "
                "which is nan or inf" in capsys.readouterr().err)
        assert not out.exists()

    def test_validate_success_exit_code(self, tmp_path, monkeypatch):
        from canp import validate as validate_mod

        def all_pass():
            return {"passed": True,
                    "checks": [{"name": "stub", "passed": True, "measured": {"x": 1.0},
                                "seconds": 0.0}]}

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

    # |alpha| < 1e-12 is a vacuum probe, whose enhancement ratio is undefined
    # and whose ⟨P⟩ zero crossings are not read: a run that reads R, and
    # fig3b, which reads those crossings, stop before writing and name alpha.
    # fig3a reads neither, so it runs. Every runner tests the same threshold.
    @pytest.mark.parametrize("alpha, shown", [("0", "0j"), ("1e-13", "(1e-13+0j)")])
    @pytest.mark.parametrize("name, code", [
        ("fig2a", 2), ("fig2b", 2), ("fig2b_inset", 2), ("fig3a", 0), ("fig3b", 2),
        ("lmg_threshold", 2), ("displacement", 2),
    ])
    def test_vacuum_probe_is_config_error_where_r_is_read(self, tmp_path, capsys, name, code,
                                                          alpha, shown):
        out = tmp_path / "x.csv"
        rc = cli.main([name.replace("_", "-"), "--config", str(CONFIG_DIR / f"{name}.json"),
                       "--out", str(out), f"--alpha={alpha}"])
        assert rc == code
        assert out.exists() is (code == 0)
        if code:
            err = capsys.readouterr().err
            assert err.startswith(f"config error: alpha={shown}: ") and "vacuum probe" in err
            assert ("⟨P⟩'s zero crossings are not read" in err) is (name == "fig3b")

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2b_inset", "fig3a", "fig3b",
                                      "lmg_threshold", "displacement"])
    def test_success_line_counts_the_data_lines(self, tmp_path, capsys, name):
        out = tmp_path / f"{name}.csv"
        experiment = name.replace("_", "-")
        assert cli.main([experiment, "--config", str(CONFIG_DIR / f"{name}.json"),
                         "--out", str(out)]) == 0
        n_rows = len(_data_lines(out))
        assert capsys.readouterr().out == f"{experiment}: {n_rows} rows written to {out}\n"

    def test_experiment_choices_keep_their_order(self):
        assert experiments.EXPERIMENTS == ("fig2a", "fig2b", "fig2b-inset", "fig3a", "fig3b",
                                           "lmg-threshold", "displacement", "validate")
        assert tuple(experiments.TABLE) == tuple(experiments.RUNNERS) == experiments.EXPERIMENTS

    def test_checked_in_configs_parse(self):
        for name in ("fig2a", "fig2b", "fig2b_inset", "fig3a", "fig3b",
                     "lmg_threshold", "displacement", "validate"):
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
            assert cfg.experiment in name.replace("_", "-") or name == "validate"
