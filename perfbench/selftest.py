#!/usr/bin/env python3
"""Self-tests of the benchmark, at the tiny smoke size.

    python3 perfbench/selftest.py

They check that one command prints every metric by name and unit, that a
corrupted reference value raises the failure count, that the seed changes
the points inputs, that every span's self time is at most its duration, and
that the benchmark refuses to run without the program.  About a minute.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import check
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = run.ROOT / ".bench_work" / "selftest"


def _bench(*args) -> tuple:
    """(stdout lines, parsed last line) of one benchmark command."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _bench_in_process(argv: list, reference_path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, reference_path=reference_path)
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


class MetricsPrinted(unittest.TestCase):
    def _assert_printed(self, lines, names_units):
        for name, unit in names_units.items():
            self.assertTrue(
                any(line.split()[:1] == [name] and unit in line.split() for line in lines),
                f"{name} [{unit}] not printed")

    def test_end_to_end_metrics_on_every_workload(self):
        issue_metrics = {**run.END_TO_END, **run.REPORT_UNITS}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = _bench("--workload", workload, "--seed", "0",
                                       "--seconds", "1", "--trace", "0", "--smoke")
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    _units("end_to_end"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                shown = {k: u for k, u in issue_metrics.items()
                         if workload == "figures" or not k.startswith("fig")}
                self._assert_printed(lines[:-1], shown)

    def test_per_layer_metrics_and_spans(self):
        lines, result = _bench("--workload", "figures", "--seed", "0",
                               "--seconds", "1", "--trace", "1", "--smoke")
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         _units("per_layer"))
        self._assert_printed(lines[:-1], _units("per_layer"))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["measurement.hermite_reuse_share"], 0.0)
        self.assertGreater(metrics["measurement.wigner_terms"], 0)
        self.assertGreater(metrics["fock.displace_calls"], 0)
        traces = sorted((run.ROOT / ".bench_work" / "figures-seed0-trace1").glob("*.spans.jsonl"))
        self.assertEqual(len(traces), len(workloads.FIGURES))
        for path in traces:
            for span in spans.with_self_times(spans.read_spans(path)):
                self.assertLessEqual(span["self"], span["end"] - span["start"])
                self.assertGreaterEqual(span["self"], 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        tree = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps id 1
            {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
        ]
        selfs = [span["self"] for span in spans.with_self_times(tree)]
        self.assertEqual(selfs, [5.0, 2.0, 3.0, 1.0])


class Seeds(unittest.TestCase):
    def test_seed_changes_points_inputs(self):
        first = next(workloads.point_rounds(0))
        self.assertEqual(first, next(workloads.point_rounds(0)))
        self.assertNotEqual(first, next(workloads.point_rounds(1)))
        self.assertNotIn(first[0], workloads.warmup_round(0))


class Corruption(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.path = SCRATCH / "corrupt.json.gz"
        self.reference = check.load_reference()

    @staticmethod
    def _corrupt(table: str) -> str:
        """The table with its first numeric cell moved out of tolerance."""
        _, rows = check.parse_table(table)
        numeric = next(i for i, cell in enumerate(rows[0])
                       if cell.lstrip("-").replace(".", "", 1).isdigit())
        bad = f"{float(rows[0][numeric]) * 1.01 + 1e-3:.12g}"
        lines = table.splitlines()
        at = len(lines) - len(rows)
        cells = lines[at].split(",")
        cells[numeric] = bad
        lines[at] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_corrupted_sweep_reference_fails(self):
        self.reference["smoke"]["sweep"] = self._corrupt(self.reference["smoke"]["sweep"])
        check.save_reference(self.reference, self.path)
        result = _bench_in_process(["--workload", "pnrd-sweep", "--seed", "0",
                                    "--seconds", "0", "--trace", "0", "--smoke"],
                                   self.path)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_corrupted_point_reference_fails(self):
        key = workloads.point_key(next(workloads.point_rounds(0))[0])
        self.reference["points"][key] = self._corrupt(self.reference["points"][key])
        check.save_reference(self.reference, self.path)
        result = _bench_in_process(["--workload", "points", "--seed", "0",
                                    "--seconds", "0.1", "--trace", "0", "--smoke"],
                                   self.path)
        self.assertEqual(result["failed"], 1)

    def test_reference_file_is_gzip_json(self):
        with gzip.open(check.REFERENCE_PATH, "rt", encoding="utf-8") as handle:
            self.assertIn("points", json.load(handle))


class NoProgram(unittest.TestCase):
    def test_refuses_without_src(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(BENCHMARK["command"] + [
            "--workload", "points", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
