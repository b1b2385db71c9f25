"""The benchmark's correctness check, run in-process.

perfbench/run.py counts an operation as failed, and reports ``correct:
false``, when a figure, the sweep or a compute point exits non-zero or gives
a cell outside the tolerance of ``perfbench/check.compare`` against
``perfbench/reference.json.gz``, or when a point breaks
``check.point_invariants``.  These tests apply the same judgement to the
full-size figures and sweep, and to round 0 of the points stream for seeds
0-9, so they fail exactly where the benchmark would report incorrect
outputs.  A change that moves cells on purpose must therefore come with a
regenerated reference.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from macrolens.cli import main
from macrolens.distinguishability import dfs_kd_closed_form

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")
REFERENCE = check.load_reference()


def _cell_verdict(output: str, key: str, references: dict) -> str | None:
    """None when the output passes the benchmark's check, else the reason."""
    within, changed = check.compare(output, references[key])
    return None if within else f"{changed} cells changed, some beyond the tolerance"


@pytest.mark.parametrize("key", [f"fig{fig}" for fig in workloads.FIGURES] + ["sweep"])
def test_full_size_table_within_reference(tmp_path, key):
    out = tmp_path / f"{key}.csv"
    if key == "sweep":
        config = tmp_path / "sweep.cfg"
        config.write_text(workloads.SWEEP_CONFIG["full"], encoding="utf-8")
        argv = ["sweep", "--config", str(config)]
    else:
        argv = ["figure", key[3:]]
        steps = workloads.FIGURE_STEPS["full"][int(key[3:])]
        if steps is not None:
            argv += ["--steps", str(steps)]
    assert main([*argv, "--out", str(out)]) == 0
    assert _cell_verdict(out.read_text(encoding="utf-8"), key, REFERENCE["full"]) is None


@pytest.mark.parametrize("seed", range(10))
def test_points_round_within_reference(seed):
    failures = []
    for argv in next(workloads.point_rounds(seed)):
        key = workloads.point_key(argv)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            failures.append(f"{key}: exit {code}")
            continue
        opts = workloads.point_options(argv)
        closed_form = None
        if (opts["--family"], opts["--detector"], float(opts["--sigma"])) == ("dfs", "pnrd", 0.0):
            closed_form = dfs_kd_closed_form(float(opts["--alpha"]))
        if not check.point_invariants(stdout.getvalue(), closed_form):
            failures.append(f"{key}: invariants broken")
        elif (reason := _cell_verdict(stdout.getvalue(), key, REFERENCE["points"])) is not None:
            failures.append(f"{key}: {reason}")
    assert not failures, failures
