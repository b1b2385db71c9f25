import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macrolens import figures
from macrolens.catalog import build
from macrolens.cli import main
from macrolens.errors import InvalidArgumentError, MacrolensError
from macrolens.figures import (
    ALL_MEASURES,
    FIGURE_ALIASES,
    _SWEEP_KEYS,
    ResultTable,
    SweepSpec,
    compute,
    parse_sweep_config,
    run_figure,
    sweep,
)
from macrolens.fock import coherent_state
from macrolens.macroscopicity import report
from macrolens.measurement import DetectorModel


def _refuse(*args, **kwargs):
    raise AssertionError("a path the tables no longer take was called")


CONFIG = """\
# minimal sweep
family = css
start = 0.2
stop = 1.4
steps = 31
detector = homodyne
sigma = 0, 0.5, 1.0
"""


class TestResultTable:
    def test_csv_layout(self):
        t = ResultTable(["a", "b"], [[1, 2.5], [3, 0.1]], {"k": "v"})
        lines = t.to_csv().splitlines()
        assert lines[0] == "# k = v"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2.5"

    def test_twelve_digit_rendering(self):
        t = ResultTable(["x"], [[0.1 + 0.2]])
        assert t.to_csv().splitlines()[-1] == "0.3"

    def test_row_shape_checked(self):
        with pytest.raises(InvalidArgumentError):
            ResultTable(["a", "b"], [[1]])

    def test_json_round_trip(self):
        t = ResultTable(["x", "name"], [[1.5, "css"]], {"k": 2})
        doc = json.loads(t.to_json())
        assert doc["columns"] == ["x", "name"]
        assert doc["rows"] == [[1.5, "css"]]
        assert doc["metadata"] == {"k": 2}

    def test_bad_format(self):
        with pytest.raises(InvalidArgumentError):
            ResultTable(["x"], [[1]]).render("yaml")

    def test_rows_render_by_the_cell_rules(self):
        # one format per row, by each cell's type: str as is, int and
        # np.integer as str(int(v)), everything else at 12 digits
        cells = [
            "css", "", 7, -3, True, 10**30, np.int64(-9), np.uint64(2**64 - 1),
            0.1 + 0.2, -0.0, math.nan, -math.inf, 1e-300, np.float64(2.0) / 3,
            np.float32(0.1), np.bool_(True), 5e-324,
        ]
        rows = [cells, cells[::-1], [1.5] * len(cells), cells[1:] + ["x"]]
        # longer than one chunk, with signatures that change inside a chunk,
        # across a chunk edge and in runs that straddle one
        long_rows = rows * 1200 + [cells] * 5000 + rows[:3] * 7
        for table_rows in (rows, long_rows):
            table = ResultTable([str(i) for i in range(len(cells))], table_rows)
            lines = table.to_csv().splitlines()[1:]
            assert lines == [",".join(figures._fmt(v) for v in row) for row in table_rows]

    @pytest.mark.parametrize("dtype", [float, np.float32, np.int64])
    def test_array_rows_render_as_their_list_rows(self, dtype):
        # rows longer than one chunk, whose last chunk is a short one
        values = np.arange(-15000.0, 15000.0).reshape(10000, 3) / 7.0
        rows = values.astype(dtype)
        table = ResultTable(["a", "b", "c"], rows, {"k": "v"})
        as_lists = ResultTable(["a", "b", "c"], rows.tolist(), {"k": "v"})
        assert table.to_csv() == as_lists.to_csv()
        assert table.to_json() == as_lists.to_json()
        assert len(table.rows) == 10000
        assert table.column("c") == as_lists.column("c")

    @pytest.mark.parametrize("rows", [np.zeros((3, 2)), np.zeros(3), np.zeros((3, 3, 1))],
                             ids=["columns", "1-d", "3-d"])
    def test_array_shape_checked(self, rows):
        with pytest.raises(InvalidArgumentError):
            ResultTable(["a", "b", "c"], rows)

    @pytest.mark.parametrize("value", [
        "css", "", 0, 7, -3, 123456789012345, 10**30, True, False, np.int64(-9),
        np.bool_(True), np.bool_(False), 0.1 + 0.2, 123456789012345.0, 0.0, -0.0,
        math.inf, -math.inf, math.nan, 1e-300, np.float64(2.0) / 3, np.float64(-0.0),
        np.float32(0.1), np.float32(-0.0),
    ], ids=repr)
    def test_fmt_keeps_the_per_type_rules(self, value):
        def old_fmt(v):
            if type(v) is float:
                return f"{v:.12g}"
            if isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return f"{float(v):.12g}"

        assert figures._fmt(value) == old_fmt(value)


class TestSweepConfig:
    def test_parse(self):
        spec = parse_sweep_config(CONFIG)
        assert spec.family == "css"
        assert spec.steps == 31
        assert spec.sigmas == (0.0, 0.5, 1.0)
        assert spec.angle == 0.0
        assert spec.m == 1
        assert spec.measures == ALL_MEASURES
        assert spec.out is None
        assert spec.fmt == "csv"

    def test_key_table_names_each_field_once(self):
        names = [name for name, _ in _SWEEP_KEYS.values()]
        assert sorted(names) == sorted(f.name for f in fields(SweepSpec))

    @pytest.mark.parametrize("key", ["family", "start", "stop", "steps", "detector", "sigma"])
    def test_missing_key_named(self, key):
        kept = "".join(f"{l}\n" for l in CONFIG.splitlines() if not l.startswith(key))
        with pytest.raises(InvalidArgumentError, match=f"^config is missing the '{key}' key$"):
            parse_sweep_config(kept)

    def test_readme_example(self):
        # the README's example parses, names every config key, and shows
        # each optional key with a value that gives the default table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        given_keys = re.findall(r"^(\w+) =", block, re.M)
        optional = re.findall(r"^#\s+(\w+ = .*?)(?:\s{2,}.*)?$", block, re.M)
        documented = given_keys + [line.split()[0] for line in optional]
        assert sorted(documented) == sorted(_SWEEP_KEYS)
        spec = parse_sweep_config(block)
        explicit = parse_sweep_config(block + "".join(f"{line}\n" for line in optional))
        assert explicit.out == "-" and spec.out is None
        assert sweep(explicit).to_csv() == sweep(spec).to_csv()

    def test_unknown_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown config key"):
            parse_sweep_config(CONFIG + "bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            parse_sweep_config(CONFIG + "family = dfs\n")

    def test_missing_required(self):
        with pytest.raises(InvalidArgumentError, match="missing"):
            parse_sweep_config("family = css\n")

    @given(st.dictionaries(
        st.sampled_from(sorted(_SWEEP_KEYS)),
        st.one_of(st.text(), st.integers(), st.floats()),
    ))
    @settings(max_examples=200, deadline=None)
    def test_parse_returns_spec_or_domain_error(self, values):
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        try:
            assert isinstance(parse_sweep_config(text), SweepSpec)
        except MacrolensError:
            pass

    def test_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("css", 1.0, 0.5, 10, "homodyne", (0.0,))
        for start, stop in ((0.5, float("inf")), (-1e308, 1e308)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                SweepSpec("css", start, stop, 10, "homodyne", (0.0,))
        with pytest.raises(InvalidArgumentError):
            SweepSpec("css", 0.5, 1.0, 10, "homodyne", (0.0,), measures=("bogus",))


class TestSweep:
    def test_row_count_and_order(self):
        table = sweep(parse_sweep_config(CONFIG))
        assert len(table.rows) == 31 * 3
        alphas = table.column("alpha")
        sigmas = table.column("sigma")
        assert alphas == sorted(alphas)
        assert sigmas[:3] == [0.0, 0.5, 1.0]

    def test_plus_minus_expansion(self):
        table = sweep(parse_sweep_config(CONFIG))
        for m in ("n_fluct", "mean_n", "m_bc", "m_kd"):
            assert f"{m}_plus" in table.columns
            assert f"{m}_minus" in table.columns
        assert "d_kd" in table.columns

    def test_no_grid_points_metadata(self):
        # no one grid size holds for every detector of a sweep or figure 5
        assert "grid_points" not in sweep(parse_sweep_config(CONFIG)).metadata
        assert "grid_points" not in run_figure(5, steps=4).metadata


class TestCompute:
    def test_css_point(self):
        table = compute("css", {"alpha": 1.0}, "homodyne", 0.0)
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["sign"] == "-"
        assert row["m_kd"] == pytest.approx(row["n_fluct"] * row["d_kd"], abs=1e-12)

    @pytest.mark.parametrize("detector", ["homodyne", "pnrd"])
    def test_batch_of_one(self, monkeypatch, detector):
        # compute lays out the one point the table evaluator returns, not a
        # MacroReport, and its row keeps the report's bits
        monkeypatch.setattr(figures, "report", _refuse)
        state, det = build("psv", r=1.0, m=2), DetectorModel(detector, sigma=1.0)
        for sign, tag in ((+1, "+"), (-1, "-")):
            table = compute("psv", {"r": 1.0, "m": 2}, detector, 1.0, sign=sign)
            rep = report(state, sign, det)
            assert table.rows == [[
                "psv", tag, detector, 0.0, 1.0, 1.0, rep.mean_n, rep.n_fluct,
                rep.d_bc, rep.d_kd, rep.m_bc, rep.m_kd,
            ]]
            assert table.metadata["m"] == 2
        with pytest.raises(InvalidArgumentError, match="sign must be"):
            compute("css", {"alpha": 1.0}, "pnrd", 0.0, sign=0)

    @pytest.mark.parametrize("family", ["css", "dfs"])
    def test_m_ignored_outside_psv(self, family, capsys):
        # only psv subtracts photons; css and dfs ignore --m, whatever its value
        rc = main(["compute", "--family", family, "--alpha", "1", "--m", "0",
                   "--detector", "pnrd", "--sigma", "0"])
        assert rc == 0
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("family, params", [
        ("css", {"alpha": 1.5}), ("dfs", {"alpha": 2.0}), ("psv", {"r": 2.5, "m": 4}),
    ])
    def test_cutoff_states_the_count_rows(self, family, params):
        # only photon counting reads a truncated basis: homodyne D reads the
        # frame and N is in closed form
        rows = build(family, **params).branch_set.counts
        assert compute(family, params, "pnrd", 1.0).metadata["cutoff"] == rows.shape[1]
        assert "cutoff" not in compute(family, params, "homodyne", 1.0).metadata


class TestFigures:
    def test_figure1_builds_its_cat_once(self, monkeypatch):
        # the cat and the mixture share one pair of coherent states; no
        # catalog state is built next to them
        monkeypatch.setattr(figures, "css", _refuse)
        table = run_figure(1, steps=21)
        assert table.metadata["max_cutoff"] == coherent_state(1.5, 1e-16).cutoff

    def test_max_cutoff_only_where_counts_were_read(self):
        assert "max_cutoff" in run_figure(1, steps=21).metadata  # the Wigner reads psi_minus
        for fig in (2, 3, 4, 7, 8):
            assert run_figure(fig, steps=3).metadata["max_cutoff"] > 0
        for fig in (5, 6):
            assert "max_cutoff" not in run_figure(fig, steps=3).metadata
        homodyne = parse_sweep_config(CONFIG)
        assert "max_cutoff" not in sweep(homodyne).metadata
        pnrd = parse_sweep_config(CONFIG.replace("detector = homodyne", "detector = pnrd"))
        assert sweep(pnrd).metadata["max_cutoff"] == max(
            build("css", alpha=alpha).branch_set.counts.shape[1] for alpha in (0.2, 1.4)
        )

    def test_figure1_at_any_steps(self):
        # a grid too coarse for the cat's fringes still holds its mass
        for n in range(2, 41):
            table = run_figure(1, steps=n)
            assert len(table.rows) == n * n

    @pytest.mark.parametrize("steps", [2, 21, 81])
    def test_figure1_array_renders_as_list_rows(self, steps):
        # figure 1 keeps its values as one float array; each cell renders as
        # the same value in a list row renders under the per-type rules
        table = run_figure(1, steps=steps)
        assert isinstance(table.rows, np.ndarray) and table.rows.shape == (steps * steps, 4)
        rows = table.rows.tolist()
        lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
        lines += [",".join(table.columns), *(",".join(map(figures._fmt, row)) for row in rows)]
        assert table.to_csv() == "\n".join(lines) + "\n"
        as_lists = ResultTable(table.columns, rows, table.metadata)
        assert table.to_json() == as_lists.to_json()

    def test_figure1_memory_stays_small(self):
        # 201 x 201 rows: as Python lists of floats the table and its CSV
        # took a 15.6 MB peak
        run_figure(1, steps=5).to_csv()  # import-time and first-call allocations
        tracemalloc.start()
        try:
            run_figure(1, steps=201).to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_figure1_coarse_steps_exit_zero(self, capsys):
        for n in ("2", "5", "17"):
            assert main(["figure", "1", "--steps", n]) == 0
        assert capsys.readouterr().err == ""

    def test_wigner_window_missing_mass_diagnostic(self, monkeypatch, capsys):
        wigner = figures.wigner
        monkeypatch.setattr(
            figures, "wigner", lambda s, x_range, p_range, n: wigner(s, (-1, 1), p_range, n)
        )
        assert main(["figure", "1", "--steps", "21"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=grid-coverage-error detail=")

    def test_aliases_match_ids(self):
        by_alias = run_figure("fig-css", steps=5)
        by_id = run_figure(2, steps=5)
        assert by_alias.to_csv() == by_id.to_csv()

    def test_alias_table_complete(self):
        assert sorted(FIGURE_ALIASES.values()) == list(range(1, 9))

    def test_deterministic_output(self):
        a = run_figure(5, steps=4).to_csv()
        b = run_figure(5, steps=4).to_csv()
        assert a == b

    def test_unknown_figure(self):
        with pytest.raises(InvalidArgumentError):
            run_figure(9)
        with pytest.raises(InvalidArgumentError):
            run_figure("fig-bogus")

    def test_css_figure_pnrd_blind(self):
        table = run_figure(2, steps=5)
        assert max(abs(v) for v in table.column("d_pnrd")) < 1e-9

    def test_dfs_figure_closed_form_column(self):
        table = run_figure(4, steps=9)
        kd = table.column("d_kd_pnrd")
        closed = table.column("d_kd_closed_form")
        assert closed[0] == 0.0
        assert max(abs(a - b) for a, b in zip(kd[1:], closed[1:])) < 1e-6


class TestMain:
    def test_compute_stdout(self, capsys):
        rc = main([
            "compute", "--family", "css", "--alpha", "1.0",
            "--detector", "homodyne", "--sigma", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("css,-")

    def test_figure_to_file(self, tmp_path, capsys):
        path = tmp_path / "fig5.csv"
        rc = main(["figure", "5", "--steps", "4", "--out", str(path)])
        assert rc == 0
        assert path.read_text().splitlines()[0].startswith("#")

    def test_json_format(self, capsys):
        rc = main([
            "compute", "--family", "dfs", "--alpha", "0.5", "--detector",
            "pnrd", "--sigma", "0", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0][0] == "dfs"

    def test_domain_error_diagnostic(self, capsys):
        rc = main([
            "compute", "--family", "psv", "--r", "0",
            "--detector", "homodyne", "--sigma", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("macrolens-error code=")
        assert "detail=" in err

    def test_missing_param_diagnostic(self, capsys):
        rc = main([
            "compute", "--family", "css", "--detector", "homodyne",
            "--sigma", "0",
        ])
        assert rc == 1
        assert "macrolens-error" in capsys.readouterr().err

    def test_sweep_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "family = dfs\nstart = 0.5\nstop = 1.0\nsteps = 2\n"
            "detector = pnrd\nsigma = 0\n"
        )
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + 2

    @pytest.mark.parametrize("line", ("steps = abc", "sigma = 0, x"))
    def test_bad_config_value_diagnostic(self, tmp_path, capsys, line):
        key = line.split()[0]
        kept = [l for l in CONFIG.splitlines() if not l.startswith(key)]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    def test_bad_tail_tolerance_env_diagnostic(self, monkeypatch, capsys):
        monkeypatch.setenv("MACROLENS_TAIL_TOL", "oops")
        rc = main([
            "compute", "--family", "css", "--alpha", "1.0",
            "--detector", "homodyne", "--sigma", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    @pytest.mark.parametrize("fig, steps", [("5", "-1"), ("2", "0")])
    def test_bad_steps_diagnostic(self, capsys, fig, steps):
        rc = main(["figure", fig, "--steps", steps])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "bogus", "--alpha", "1", "--detector", "pnrd",
         "--sigma", "0"],
        ["figure", "2", "--steps", "abc"],
        [],
    ], ids=["bad-choice", "bad-int", "no-command"])
    def test_malformed_command_line_diagnostic(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["figure", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out and not out.err

    def test_non_utf8_config_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(CONFIG.encode() + b"# \xff\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    # "error" turns numpy's overflow RuntimeWarnings into failures
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("detector, sigma, code", [
        ("homodyne", "1e200", "unsupported-range"),
        ("homodyne", "1e308", "unsupported-range"),
        ("pnrd", "1e200", "unsupported-range"),
        ("pnrd", "1e308", "unsupported-range"),
        # the grid spans +-6 sigma in 2048 points, too coarse for the state
        ("homodyne", "150", "grid-coverage-error"),
        ("homodyne", "200", "grid-coverage-error"),
        ("homodyne", "500", "grid-coverage-error"),
        ("homodyne", "1e6", "grid-coverage-error"),
        ("homodyne", "1e150", "grid-coverage-error"),
    ])
    def test_huge_sigma_diagnostic(self, capsys, detector, sigma, code):
        rc = main([
            "compute", "--family", "css", "--alpha", "1",
            "--detector", detector, "--sigma", sigma,
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"macrolens-error code={code} detail=")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", ["1e-9", "1e-5", "0.05"])
    def test_tiny_pnrd_sigma(self, capsys, sigma):
        # neighbouring outcomes overlap by exp(-1/(8 sigma^2)) < 1e-16, so
        # the blurred D is the sigma = 0 D
        def measures(family, sigma):
            rc = main([
                "compute", "--family", family, "--alpha", "2",
                "--detector", "pnrd", "--sigma", sigma, "--format", "json",
            ])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            row = dict(zip(doc["columns"], doc["rows"][0]))
            return row["d_bc"], row["d_kd"]

        for family in ("css", "dfs"):
            assert measures(family, sigma) == measures(family, "0")

    @pytest.mark.filterwarnings("error")
    def test_tiny_homodyne_sigma(self, capsys):
        # the blur kernel's exponent overflows off its centre: exactly 0 there
        rc = main([
            "compute", "--family", "css", "--alpha", "1",
            "--detector", "homodyne", "--sigma", "1e-300",
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, m", [
        ("2.5", "4"),  # a^5 drops 1.43e-12 beyond the 2969 start levels: grows to 5938
        ("2.5", "5"),
        ("2.5", "20"),
        ("2.5", "100"),  # 8 times the start, 23752 levels
    ])
    def test_psv_grows_for_its_branches(self, capsys, r, m):
        rc = main([
            "compute", "--family", "psv", "--r", r, "--m", m,
            "--detector", "pnrd", "--sigma", "0",
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, m, code", [
        ("2.5", "300", "unsupported-range"),  # the tail stalls at 1 past a doubling
        ("0.5", "100", "unsupported-range"),
        ("0.5", "100000", "unsupported-range"),
        ("0", "1", "degenerate-subtraction"),
        ("0", "100000", "degenerate-subtraction"),
    ])
    def test_psv_subtraction_diagnostic(self, capsys, r, m, code):
        rc = main([
            "compute", "--family", "psv", "--r", r, "--m", m,
            "--detector", "pnrd", "--sigma", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"macrolens-error code={code} detail=")

    @pytest.mark.parametrize("r, m, code", [
        ("0", "1", "degenerate-subtraction"),
        ("0.5", "100", "unsupported-range"),  # a^101 does not fit the 55 start levels
    ])
    def test_psv_homodyne_refusals(self, capsys, r, m, code):
        # homodyne reads the frame, not the Fock branches, and still refuses
        # what the branches would
        rc = main([
            "compute", "--family", "psv", "--r", r, "--m", m,
            "--detector", "homodyne", "--sigma", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"macrolens-error code={code} detail=")

    def test_parser_reuse_keeps_no_state(self, capsys):
        psv = ["compute", "--family", "psv", "--r", "0.5", "--detector", "homodyne",
               "--sigma", "0"]
        assert main([*psv, "--m", "2"]) == 0
        assert "# m = 2" in capsys.readouterr().out.splitlines()
        assert main(psv) == 0
        assert "# m = 1" in capsys.readouterr().out.splitlines()

        css = ["compute", "--family", "css", "--alpha", "1", "--detector", "homodyne",
               "--sigma", "0"]
        assert main([*css, "--angle", "0.3", "--sign", "plus"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert (row[1], row[3]) == ("+", "0.3")
        assert main(css) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert (row[1], row[3]) == ("-", "0")

    def test_pnrd_ignores_the_angle(self, capsys):
        dfs = ["compute", "--family", "dfs", "--alpha", "1.2", "--detector", "pnrd",
               "--sigma", "1"]
        assert main(dfs) == 0
        plain = capsys.readouterr().out
        assert main([*dfs, "--angle", "0.3"]) == 0
        assert capsys.readouterr().out == plain
        assert plain.splitlines()[-1].split(",")[2:4] == ["pnrd", "0"]
        assert main([*dfs, "--angle", "nan"]) == 1
        assert capsys.readouterr().err == (
            "macrolens-error code=invalid-argument detail=angle must be finite\n")

    def test_homodyne_keeps_a_negative_zero_angle(self, capsys):
        argv = ["compute", "--family", "dfs", "--alpha", "1.2", "--detector", "homodyne",
                "--sigma", "1", "--angle", "-0"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[2:4] == ["homodyne", "-0"]

    def test_missing_config_file(self, capsys):
        rc = main(["sweep", "--config", "/nonexistent.cfg"])
        assert rc == 1
        assert "code=io" in capsys.readouterr().err


def _package_path() -> str:
    import macrolens

    return os.path.dirname(os.path.dirname(macrolens.__file__))


class TestImports:
    # scipy is a test oracle only, the package logs nothing, and
    # json serves ResultTable.to_json only
    @pytest.mark.parametrize("module", ["scipy", "logging", "json"])
    def test_cli_does_not_import(self, module):
        code = (
            "import sys, macrolens.cli;"
            f"print([m for m in sys.modules if m.split('.')[0] == {module!r}])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": _package_path()},
        ).stdout
        assert out.strip() == "[]"

    def test_every_exported_name_resolves(self):
        # a stale name in __all__ breaks only `from macrolens import *`,
        # so the star import runs in a fresh interpreter
        code = "\n".join([
            "import macrolens",
            "from macrolens import *",
            "missing = [name for name in macrolens.__all__ if name not in globals()]",
            "assert not missing, missing",
            "print(len(macrolens.__all__))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": _package_path()},
        ).stdout
        assert int(out) > 0

    def test_benchmark_tracer_installs(self):
        # perfbench/spans.py wraps module attributes by name and fails when
        # one of them is gone; it patches modules, so it runs in a subprocess,
        # imported as the benchmark's traced worker imports it, and then
        # traces one homodyne and one photon-counting point and three figures.
        # Figure 2 must reach the wrapped figures.both_measures: figures look
        # their measure up when they run, not when they are defined.  Figure 1
        # must reach the wrapped figures.wigner.
        perfbench = os.path.join(os.path.dirname(_package_path()), "perfbench")
        code = "\n".join([
            "from spans import Tracer",
            "from macrolens import cli",
            "tracer = Tracer()",
            "tracer.install()",
            "tracer.begin_op('compute')",
            "point = ['compute', '--family', 'psv', '--r', '1', '--detector']",
            "assert cli.main(point + ['homodyne', '--angle', '0.3', '--sigma', '0']) == 0",
            "assert cli.main(point + ['pnrd', '--sigma', '1']) == 0",
            "assert tracer.spans",
            "for fig, steps in (('1', '21'), ('2', '3'), ('5', '3')):",
            "    tracer.begin_op('figure ' + fig)",
            "    assert cli.main(['figure', fig, '--steps', steps]) == 0",
            "names = {(span['op'], span['name']) for span in tracer.spans}",
            "assert ('figure 1', 'measurement.wigner') in names",
            "assert ('figure 2', 'distinguishability.both_measures') in names",
            "assert ('figure 5', 'figures.run_figure') in names",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                 "PYTHONPATH": os.pathsep.join([perfbench, _package_path()])},
        )
        assert proc.returncode == 0, proc.stderr


def _capped_address_space():
    # a cutoff that grows without bound then fails fast instead of
    # exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestEnvTolerance:
    @pytest.mark.parametrize("tol, family, param", [
        ("1e-16", "css", "alpha=4"),
        ("1e-300", "css", "alpha=4"),
        ("1e-16", "psv", "r=0.3"),
        ("1e-16", "psv", "r=1.5"),
        ("1e-16", "psv", "r=2.5"),
    ])
    def test_tiny_tolerance_reached(self, tol, family, param):
        # the displaced and squeezed tails are summed directly, so they fall
        # below roundoff; psv grows its cutoff until both a S|0> and a^2 S|0>
        # drop less than the tolerance (a^2 S|0> drops 7.8e-16 beyond the
        # 402 start levels at r = 1.5 and 8.2e-16 beyond 2969 at r = 2.5)
        name, value = param.split("=")
        code = (
            "import sys; from macrolens.cli import main; from macrolens import build;"
            f"state = build('{family}', {name}={value});"
            "print(max(b.tail_mass for b in state.branch_set.branches));"
            f"sys.exit(main(['compute', '--family', '{family}', '--{param}',"
            " '--detector', 'pnrd', '--sigma', '0']))"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
            timeout=120, preexec_fn=_capped_address_space,
            env={**os.environ, "PYTHONPATH": _package_path(), "MACROLENS_TAIL_TOL": tol,
                 "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout.splitlines()[0]) < float(tol)

    def test_bad_tolerance_reaches_dfs(self, monkeypatch, capsys):
        monkeypatch.setenv("MACROLENS_TAIL_TOL", "abc")
        rc = main([
            "compute", "--family", "dfs", "--alpha", "1.0",
            "--detector", "pnrd", "--sigma", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    @pytest.mark.parametrize("family, param", [
        ("css", "--alpha"), ("dfs", "--alpha"), ("psv", "--r"),
    ])
    def test_bad_tolerance_reaches_homodyne(self, monkeypatch, capsys, family, param):
        # homodyne builds no Fock branch, so the catalog checks the tolerance itself
        monkeypatch.setenv("MACROLENS_TAIL_TOL", "abc")
        rc = main(["compute", "--family", family, param, "1.0", "--detector", "homodyne",
                   "--sigma", "0"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=invalid-argument detail=")

    def test_tail_tolerance_env(self):
        code = (
            "import os; os.environ['MACROLENS_TAIL_TOL']='1e-6';"
            "from macrolens import coherent_state;"
            "print(coherent_state(2.0).tail_mass < 1e-6,"
            " coherent_state(2.0).cutoff)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": _package_path()},
        ).stdout.split()
        loose_cutoff = int(out[1])
        assert out[0] == "True"
        from macrolens import coherent_state

        assert coherent_state(2.0).cutoff >= loose_cutoff


class TestOutOfMemory:
    # every first allocation here needs 74 GiB or more, so none can succeed;
    # numpy cannot even size the arrays of the cases past sys.maxsize // 16
    @pytest.mark.parametrize("argv", [
        ["figure", "1", "--steps", "100000"],
        ["figure", "2", "--steps", "100000000000"],
        ["figure", "5", "--steps", "100000000000"],
        ["figure", "8", "--steps", "100000000000"],
        ["sweep", "--config", "{config}"],
        ["figure", "2", "--steps", str(10**19)],
        ["figure", "1", "--steps", str(10**30)],
        ["figure", "3", "--steps", str(2 * 10**18)],
        ["sweep", "--config", "{unsizable}"],
        ["sweep", "--config", "{largest}"],
    ])
    def test_huge_steps_diagnostic(self, tmp_path, argv):
        configs = {"config": 10**11, "unsizable": 10**19, "largest": sys.maxsize // 16}
        paths = {name: tmp_path / f"{name}.cfg" for name in configs}
        for name, steps in configs.items():
            paths[name].write_text(CONFIG.replace("steps = 31", f"steps = {steps}"))
        argv = [a.format(**paths) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             f"import sys; from macrolens.cli import main; sys.exit(main({argv!r}))"],
            capture_output=True, text=True, timeout=120, preexec_fn=_capped_address_space,
            env={**os.environ, "PYTHONPATH": _package_path(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("macrolens-error code=unsupported-range detail=")


# Edge values for every numeric compute flag: zero, signed extremes, the ends
# of the family ranges and just past them, and non-finite input.
_EDGE = ["0", "1e-300", "-1e-300", "1e-9", "0.5", "2.5", "4", "4.0001", "-1",
         "nan", "inf", "1e150", "1e308"]
_DIAGNOSTIC = re.compile(r"macrolens-error code=\S+ detail=")


def _assert_exit_zero_or_one_diagnostic(argv):
    """Run ``main(argv)`` in-process with warnings as errors: it must exit 0
    with an empty stderr, or 1 with exactly one diagnostic line."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 1
        assert len(lines) == 1
        assert _DIAGNOSTIC.match(lines[0])


class TestComputeFuzz:
    @given(
        family=st.sampled_from(["css", "psv", "dfs"]),
        value=st.sampled_from(_EDGE),
        m=st.sampled_from(["-1", "0", "1", "2", "5", "100", "300"]),
        detector=st.sampled_from(["homodyne", "pnrd"]),
        sigma=st.sampled_from(_EDGE),
        angle=st.sampled_from([None, *_EDGE]),
        sign=st.sampled_from(["plus", "minus"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_exit_zero_or_one_diagnostic(self, family, value, m, detector, sigma,
                                         angle, sign):
        # "--flag=value" keeps argparse from reading "-1e-300" as an option
        param = "--r" if family == "psv" else "--alpha"
        argv = ["compute", "--family", family, f"{param}={value}", f"--m={m}",
                "--detector", detector, f"--sigma={sigma}", "--sign", sign]
        if angle is not None:
            argv.append(f"--angle={angle}")
        _assert_exit_zero_or_one_diagnostic(argv)


class TestFigureFuzz:
    @given(
        fig=st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "-1",
                             "1.5", "", "+3", "08", " 2", "1e0", "FIG-CSS", "bogus",
                             *FIGURE_ALIASES]),
        steps=st.sampled_from(["-1", "0", "1", "2", "3"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_exit_zero_or_one_diagnostic(self, fig, steps):
        _assert_exit_zero_or_one_diagnostic(["figure", fig, f"--steps={steps}"])


class TestMalformedArgvFuzz:
    @given(
        command=st.sampled_from([[], ["figure"], ["figure", "2"], ["compute"],
                                 ["sweep"], ["bogus"], ["--bogus"]]),
        flags=st.lists(st.sampled_from([
            "--steps", "--steps=abc", "--steps=1.5", "--steps=", "--format=yaml",
            "--family=bogus", "--family", "--alpha=x", "--r", "--m=two",
            "--detector=bogus", "--sigma=abc", "--sign=both", "--config", "--bogus",
            "-x", "extra", "--alpha=1", "--detector=pnrd", "--sigma=0",
        ]), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_exit_zero_or_one_diagnostic(self, command, flags):
        _assert_exit_zero_or_one_diagnostic([*command, *flags])


class TestSweepFuzz:
    @given(
        family=st.sampled_from(["css", "psv", "dfs", "ghz"]),
        start=st.sampled_from(["-1e308", "-1", "0", "0.05", "1", "nan", "inf", "abc"]),
        stop=st.sampled_from(["0.5", "2.5", "4.5", "1e308", "inf", "nan"]),
        steps=st.sampled_from(["-1", "0", "1", "2", "3", "1.5", str(10**19)]),
        detector=st.sampled_from(["homodyne", "pnrd", "bogus"]),
        sigma=st.sampled_from(["0", "0, 1", "-1", "1e-9", "1e300", "abc", "inf", "nan"]),
        optional=st.lists(st.sampled_from([
            "angle = 1e308", "angle = nan", "m = 0", "m = 5", "m = 100",
            "measures = d_kd, bogus", "format = yaml",
        ]), unique_by=lambda line: line.split()[0], max_size=4),
    )
    # the known holes, each with every other key valid: two ranges whose width
    # is not finite, and a grid too large for numpy to size
    @example(family="css", start="0", stop="inf", steps="2",
             detector="homodyne", sigma="0", optional=[])
    @example(family="css", start="-1e308", stop="1e308", steps="2",
             detector="homodyne", sigma="0", optional=[])
    @example(family="css", start="0.05", stop="2.5", steps=str(10**19),
             detector="homodyne", sigma="0", optional=[])
    @settings(max_examples=100, deadline=None)
    def test_exit_zero_or_one_diagnostic(self, tmp_path_factory, family, start, stop,
                                         steps, detector, sigma, optional):
        config = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
        config.write_text("".join(f"{line}\n" for line in [
            f"family = {family}", f"start = {start}", f"stop = {stop}",
            f"steps = {steps}", f"detector = {detector}", f"sigma = {sigma}", *optional,
        ]))
        _assert_exit_zero_or_one_diagnostic(["sweep", "--config", str(config)])

    # valid configs only, so every draw reaches _evaluate and both detectors
    @given(
        family_range=st.sampled_from([
            ("css", "0.05", "4"), ("css", "1", "2.5"), ("psv", "0.05", "2.5"),
            ("psv", "1", "2"), ("dfs", "0", "4"), ("dfs", "0.5", "1.5"),
        ]),
        steps=st.sampled_from(["2", "3"]),
        detector=st.sampled_from(["homodyne", "pnrd"]),
        sigmas=st.lists(st.sampled_from(["0", "0.5", "2"]), min_size=1, max_size=3,
                        unique=True),
        m=st.sampled_from(["1", "2"]),
    )
    @example(family_range=("psv", "1", "2.5"), steps="2", detector="pnrd",
             sigmas=["0.5", "2"], m="2")
    @settings(max_examples=20, deadline=None)
    def test_valid_config_exits_zero(self, tmp_path_factory, family_range, steps,
                                     detector, sigmas, m):
        family, start, stop = family_range
        config = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
        config.write_text("".join(f"{line}\n" for line in [
            f"family = {family}", f"start = {start}", f"stop = {stop}", f"steps = {steps}",
            f"detector = {detector}", f"sigma = {', '.join(sigmas)}",
            *([f"m = {m}"] if family == "psv" else []),
        ]))
        err, out = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stderr(err), redirect_stdout(out):
                rc = main(["sweep", "--config", str(config)])
        assert (rc, err.getvalue()) == (0, "")
        data = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
        assert len(data) == 1 + int(steps) * len(sigmas)
