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
from canp import cli, experiments, gaussian, models, validate
from canp.metrology import Protocol

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def two_point_validate(tmp_path, *modules: str) -> str:
    """Child code that runs validate on two oracle points and prints its exit
    code and whether each of `modules` got imported."""
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"experiment": "validate", "oracle": True,
                                "model": {"variant": "QRM-frequency", "g": 0.96},
                                "out": str(tmp_path / "report.json")}))
    return (
        "import sys\n"
        "from canp import cli, validate\n"
        "validate.ORACLE_GRID = ((0.5, 0.0), (0.5, 0.25))\n"
        f"rc = cli.main(['validate', '--config', {str(path)!r}])\n"
        f"print(rc, *(name in sys.modules for name in {modules!r}))\n"
    )


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
        assert {p.stem: load_config(str(p)).sha256() for p in CONFIG_DIR.glob("*.json")} == {
            "displacement": "38e0a616f9b331fb982cb398b97e14473611f947d307dbde73a1bf17ab7dc988",
            "fig2a": "090507c07d6c5c8cc66ac5a1df68644c39e5c6c9a271864de900bc67f8c20cbc",
            "fig2b": "6fad42d98b46cff1a337a73d057fdd6e24a8bccba570c28d055255d1f7d6674e",
            "fig2b_inset": "0692709e5deb1a076e6097c44f0aa2892a4ade8d84c7ff76e0e852eb3dca1435",
            "fig3a": "52cb0e94bfadcface6d3d8fe51a7f4fd22ff3b2cf6c65a50d6152b4a5e3a412f",
            "fig3b": "b4f21df45942b9b22133569908477e67dd8f54dbbfbd0c41125b256542de3932",
            "lmg_threshold": "2e8d37c0652de89c06e9b0b46fcce71d58ce99d68df70ee771e7744160741b25",
            "validate": "eb7000c232ec9163fadb7bb0693efa5885402210766b9a8bfdf6d02af172932c",
        }

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

    # Without a bracket the threshold is sought over the sweep's range,
    # whichever way the sweep runs.
    @pytest.mark.parametrize("bracket, start, stop", [([0.2, 0.6], 0.2, 0.6), (None, 0.6, 0.2)])
    def test_lmg_threshold_run(self, tmp_path, bracket, start, stop):
        cfg_dict = small_config("lmg-threshold", tmp_path, t_theta=1.3, bracket=bracket,
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

    # One derivation per model value a run builds. lmg-threshold's 95 are its
    # 81 rows, 12 refinement steps and both bracket ends, which repeat the
    # first and last rows; validate's are its five oracle grid rows and
    # every check that builds a Protocol, the thresholds' 17 + 14 R
    # evaluations among them.
    @pytest.mark.parametrize("name, derivations", [
        ("fig2a", 1), ("fig2b", 4), ("fig2b_inset", 120), ("fig3a", 3), ("fig3b", 80),
        ("lmg_threshold", 95), ("displacement", 50), ("validate", 55),
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
        # One preparation and one encoding per grid point.
        assert len(run_experiment(cfg)["g"]) == 80
        assert len(applied) == 160

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
            protocol = Protocol(*cfg.model.replace(g=float(g)).pair(), cfg.alpha)
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

    def test_overflowing_structure_is_run_failure(self, tmp_path, capsys):
        # γ = 1e300 is a valid config value, but D = [H_c, [H_c, H_θ]] ~ γ²
        # overflows: the run fails naming D, not a non-Hermitian operator.
        out = tmp_path / "x.csv"
        rc = cli.main(["lmg-threshold", "--config", str(CONFIG_DIR / "lmg_threshold.json"),
                       "--out", str(out), "--model.gamma=1e300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "run failed: critical structure is not finite (D nan or inf)" in err
        assert "Hermitian" not in err
        assert not out.exists()

    def test_underflowing_structure_is_run_failure(self, tmp_path, capsys):
        # ω = 1e-300: D underflows to 0, and so does det G_c ~ ω², which
        # would read as a gap of 0. The run fails naming Δ and the entries of
        # G_c it comes from, and numpy prints no warning first.
        self.assert_structure_run_failure(
            tmp_path, capsys, "1e-300", "Δ",
            "det G_c of H_c's entries gxx=7.84e-302, gxp=0, gpp=1e-300 is")

    def test_huge_frequency_is_run_failure(self, tmp_path, capsys):
        # ω = 1e200: C ~ ω is finite, D ~ ω² overflows.
        self.assert_structure_run_failure(tmp_path, capsys, "1e200", "D",
                                          "the nested commutators of H_c and H_theta are")

    @staticmethod
    def assert_structure_run_failure(tmp_path, capsys, omega, names, source):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["fig2a", "--config", str(CONFIG_DIR / "fig2a.json"),
                           "--out", str(out), f"--model.omega={omega}"])
        assert rc == 1
        assert caught == []
        assert (f"run failed: critical structure is not finite ({names} nan or inf): {source} "
                "out of the float range" in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_threshold_end_is_run_failure(self, tmp_path, capsys):
        # At t_θ = 1e200 R − 1 is nan at both bracket ends: the run fails
        # naming the bracket, not as a bracket without a sign change, and
        # numpy prints no overflow warning on the way.
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["lmg-threshold", "--config", str(CONFIG_DIR / "lmg_threshold.json"),
                           "--out", str(out), "--t_theta=1e200"])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert ("run failed: enhancement ratio − 1 is nan or inf at an end of (0.2, 0.6): "
                "nan at 0.2, nan at 0.6" in err)
        assert "same sign" not in err
        assert not out.exists()

    # The rows overflow to nan or inf, and numpy prints no warning on the way.
    @pytest.mark.parametrize("override, bad, first", [
        ("--sweep.t_theta.stop=1e200", 20, "sqrtDelta_tc=0.0, t_theta=2.5e+199, R=nan"),
        ('--alpha={"re":1e200,"im":0}', 25, "sqrtDelta_tc=0.0, t_theta=0.5, R=nan"),
    ])
    def test_non_finite_rows_are_run_failure(self, tmp_path, capsys, override, bad, first):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["fig2a", "--config", str(CONFIG_DIR / "fig2a.json"), "--out", str(out),
                           "--sweep.t_theta.points=5", "--sweep.sqrtDelta_tc.points=5", override])
        assert rc == 1
        assert caught == []
        assert (f"run failed: experiment fig2a: column R is nan or inf in {bad} of 25 rows, "
                f"first at {first}, enhanced=0" in capsys.readouterr().err)
        assert not out.exists()

    # numpy refuses these sizes before allocating anything: 1e15 points is
    # more memory than it can ask for, 1e20 more cells than it can index. A
    # g axis is read with the config, fig2a's axes in the run.
    @pytest.mark.parametrize("config, axis, points, rc, prefix", [
        ("fig2b_inset.json", "g", 10**15, 2, "config error: "),
        ("fig2a.json", "t_theta", 10**15, 1, "run failed: experiment fig2a: "),
        ("fig2a.json", "sqrtDelta_tc", 10**20, 1, "run failed: experiment fig2a: "),
    ])
    def test_unallocatable_sweep_is_named(self, tmp_path, capsys, config, axis, points, rc,
                                          prefix):
        out = tmp_path / "x.csv"
        assert cli.main([Path(config).stem.replace("_", "-"), "--config", str(CONFIG_DIR / config),
                         "--out", str(out), f"--sweep.{axis}.points={float(points)!r}"]) == rc
        assert capsys.readouterr().err == (f"{prefix}sweep axis {axis!r} of {points} "
                                           f"points does not fit in memory\n")
        assert not out.exists()

    # A field the experiment does not read is not checked against the model.
    @pytest.mark.parametrize("experiment, extra", [
        ("fig2a", {"g_values": [1.5], "bracket": [0.2, 3.0],
                   "sweep": {"lambda": {"start": 0.5, "stop": 2.5, "points": 3}}}),
        ("fig2b", {"bracket": [0.2, 1.5], "sweep": {"g": {"start": 0.5, "stop": 1.5, "points": 3}}}),
        ("displacement", {"g_values": [1.5], "bracket": [0.2, 1.5],
                          "model": {"variant": "QRM-displacement", "g": 0.9},
                          "sweep": {"g": {"start": 0.5, "stop": 0.9, "points": 3}}}),
    ])
    def test_unread_fields_are_not_checked(self, tmp_path, experiment, extra):
        config_from_dict(small_config(experiment, tmp_path, **extra))

    def test_runtime_does_not_import_scipy(self, child_env):
        code = "import sys, canp.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_the_oracle_unloaded(self, child_env):
        # Only a validate run needs the number-basis oracle and its checks.
        code = ("import sys, canp.cli;"
                " print('canp.fock' in sys.modules, 'canp.validate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=60, check=True)
        assert out.stdout.strip() == "False False"

    def test_validate_starts_no_worker_process(self, tmp_path, child_env):
        # The oracle runs in-process: a validate run must not even import
        # the process-pool machinery, nor numpy.random (its draws are
        # stdlib-seeded).
        code = two_point_validate(tmp_path, "concurrent.futures.process", "multiprocessing",
                                  "numpy.random")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=120, check=True)
        assert out.stdout.splitlines()[-1] == "0 False False False"

    def test_runtime_does_not_import_dataclasses(self, tmp_path, child_env):
        # Records are named tuples or slotted classes: neither start-up nor a
        # validate run loads dataclasses or copy (which dataclasses imports).
        # An interpreter whose site step loads them already cannot tell.
        modules = ("dataclasses", "copy")
        report = f"print(*(name in sys.modules for name in {modules!r}))"
        baseline, start_up = (
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=child_env(), timeout=60, check=True).stdout.strip()
            for code in (f"import sys; {report}", f"import sys, canp.cli; {report}"))
        if baseline != "False False":
            pytest.skip(f"the bare interpreter already loads {modules}: {baseline}")
        assert start_up == "False False"
        out = subprocess.run([sys.executable, "-c", two_point_validate(tmp_path, *modules)],
                             capture_output=True, text=True, env=child_env(), timeout=120,
                             check=True)
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

    def test_runtime_does_not_import_argparse(self, tmp_path, child_env):
        # The command line is read by hand: neither start-up nor a validate
        # run loads argparse or the gettext and locale modules it pulls in.
        # An interpreter whose site step loads them already cannot tell.
        modules = ("argparse", "gettext", "locale")
        report = f"print(*(name in sys.modules for name in {modules!r}))"
        baseline, start_up = (
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=child_env(), timeout=60, check=True).stdout.strip()
            for code in (f"import sys; {report}", f"import sys, canp.cli; {report}"))
        if baseline != "False False False":
            pytest.skip(f"the bare interpreter already loads {modules}: {baseline}")
        assert start_up == "False False False"
        out = subprocess.run([sys.executable, "-c", two_point_validate(tmp_path, *modules)],
                             capture_output=True, text=True, env=child_env(), timeout=120,
                             check=True)
        assert out.stdout.splitlines()[-1] == "0 False False False"

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

    def test_non_finite_report_value_is_run_failure(self, tmp_path, monkeypatch, capsys):
        # json.dumps would write a nan as a bare NaN, which is not JSON: the
        # run fails naming the check and the key, and writes no report.
        from canp import validate as validate_mod

        def nan_thresholds():
            return validate_mod.CheckResult(name="thresholds", passed=False,
                                            measured={"g_star": float("nan")})

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

    # alpha = 0 is a vacuum probe, whose enhancement ratio is undefined and
    # whose ⟨P⟩ is identically 0: a run that reads R, and fig3b, which reads
    # ⟨P⟩'s zero crossings, stop before writing and name alpha. fig3a reads
    # neither, so it runs.
    @pytest.mark.parametrize("name, code", [
        ("fig2a", 2), ("fig2b", 2), ("fig2b_inset", 2), ("fig3a", 0), ("fig3b", 2),
        ("lmg_threshold", 2), ("displacement", 2),
    ])
    def test_vacuum_probe_is_config_error_where_r_is_read(self, tmp_path, capsys, name, code):
        out = tmp_path / "x.csv"
        rc = cli.main([name.replace("_", "-"), "--config", str(CONFIG_DIR / f"{name}.json"),
                       "--out", str(out), "--alpha=0"])
        assert rc == code
        assert out.exists() is (code == 0)
        if code:
            err = capsys.readouterr().err
            assert err.startswith("config error: alpha=0j: ") and "vacuum probe" in err
            assert ("⟨P⟩ is identically 0" in err) is (name == "fig3b")

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

    def test_checked_in_configs_parse(self):
        for name in ("fig2a", "fig2b", "fig2b_inset", "fig3a", "fig3b",
                     "lmg_threshold", "displacement", "validate"):
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
            assert cfg.experiment in name.replace("_", "-") or name == "validate"
