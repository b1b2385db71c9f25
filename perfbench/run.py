#!/usr/bin/env python3
"""macrolens benchmark.

    python3 perfbench/run.py --workload figures|pnrd-sweep|points \\
        --seed N --seconds S --trace 0|1 [--smoke]

Runs the macrolens package under ``src`` of the checkout this file sits in;
it exits with status 2 when that package is missing.  Load comes from one
client, closed loop: each operation starts when the previous one ended.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the workload once untraced and once traced, and reports the per-layer
metrics of the traced run plus the tracing overhead.  A human-readable
report comes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, results and outputs are kept under ``.bench_work/`` of the checkout.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("figures", "pnrd-sweep", "points")
# One BLAS thread: on a 2-core x86-64 VM with OpenBLAS 0.3.31 a second
# thread doubled the CPU time of figures 3 and 8 by spin-waiting, slowed
# figure 4 (expm in displace) twofold and widened the run-to-run spread.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 120

# Setup samples are spread over the run, taken before each worker process,
# because the host's speed drifts over seconds: a block of samples taken
# together moves with it.
SETUP_SAMPLES_PER_WORKER = {"figures": 1, "pnrd-sweep": 3, "points": 2}
# Every figure gets two samples per run: one pass already lasts longer
# than --seconds.
FIGURE_PASSES = 2
# The points stream runs in worker processes of this many seconds each, so
# setup samples can sit between them.
POINTS_CHUNK_S = 5.0

# Metrics of the JSON result, which every workload reports.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Also printed in the report: the median pass, per-operation latency,
# per-figure times, the failure ratio and the count of changed cells.
REPORT_UNITS = {
    "wall_median_s": "s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    **{f"fig{fig}_s": "s" for fig in workloads.FIGURES},
    "fail_ratio": "ratio",
    "cells_changed": "count",
}

PER_LAYER = {
    **{name: "s" for name in spans.SELF_TIME_METRICS},
    **{name: "s" for name in spans.INCLUSIVE_TIME_METRICS},
    "measurement.hermite_cells": "count",
    "measurement.hermite_reuse_share": "ratio",
    "measurement.blur_pmf_cells": "count",
    "measurement.blur_pmf_useful_share": "ratio",
    "measurement.wigner_terms": "count",
    "fock.displace_calls": "count",
    "fock.cutoff_sum": "count",
    "fock.cutoff_overshoot": "ratio",
    "figures.cells_changed": "count",
    "trace.overhead_share": "ratio",
}


class MissingProgram(Exception):
    """The checkout has no macrolens package to benchmark."""


@dataclass
class Op:
    """One user-visible operation: a figure command, a sweep, a compute call."""

    key: str                 # reference key: "fig3", "sweep" or the compute argv
    latency_s: float         # what the user waits: process wall, or the in-process call
    main_s: float | None     # time inside cli.main
    output: str              # the table the operation printed
    error: str | None        # None when the operation exited 0
    rss_mb: float
    point: bool = False      # a compute point, checked against invariants too
    closed_form_kd: float | None = None


@dataclass
class Pass:
    """One complete unit of a workload: 8 figures, one sweep, or one round
    of compute points."""

    wall_s: float
    ops: list


@dataclass
class WorkerRun:
    wall_s: float
    result: dict | None
    error: str | None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Checkout:
    """The macrolens checkout under test and the benchmark's work directory."""

    def __init__(self, tag: str, setup_per_worker: int = 0):
        if not (ROOT / "src" / "macrolens" / "cli.py").is_file():
            raise MissingProgram(f"no macrolens package under {ROOT / 'src'}")
        self.work = ROOT / ".bench_work" / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items()
               if k not in ("MACROLENS_TAIL_TOL", "PYTHONPATH")}
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.env = env
        self.env_record = {}
        self.setup_per_worker = setup_per_worker
        self.setup_samples = []
        self.trace_files = []
        self._runs = 0

    def sample_setup(self) -> None:
        """Wall time of a fresh ``python -m macrolens.cli --version``:
        interpreter start, package import and CLI start."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "macrolens.cli", "--version"],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        self.setup_samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise MissingProgram(f"macrolens.cli does not start: {proc.stderr[-500:]}")

    def worker(self, args: list, traced: bool = False) -> WorkerRun:
        for _ in range(self.setup_per_worker):
            self.sample_setup()
        self._runs += 1
        result_path = self.work / f"run{self._runs}.json"
        cmd = [sys.executable, str(WORKER), "--result", str(result_path)]
        if traced:
            trace_path = self.work / f"run{self._runs}.spans.jsonl"
            cmd += ["--trace", str(trace_path)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + args, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return WorkerRun(time.perf_counter() - start, None, "timed out")
        wall_s = time.perf_counter() - start
        if proc.returncode != 0:
            return WorkerRun(wall_s, None,
                             f"worker exit {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.env_record = self.env_record or result["env"]
        if traced:
            self.trace_files.append(trace_path)
        return WorkerRun(wall_s, result, None)

    def cli_op(self, key: str, argv: list, out: Path, traced: bool) -> Op:
        """One ``macrolens`` command in a fresh interpreter, writing to ``out``."""
        out.unlink(missing_ok=True)
        run = self.worker(["cli", key, *argv, "--out", str(out)], traced)
        if run.result is None:
            return Op(key, run.wall_s, None, "", run.error, 0.0)
        code = run.result["returncode"]
        return Op(key, run.wall_s, run.result["main_s"],
                  out.read_text(encoding="utf-8") if code == 0 else "",
                  None if code == 0 else f"exit {code}", run.result["rss_mb"])


def _until(seconds: float, one_unit, min_units: int = 1) -> list:
    """Closed loop: whole units until ``seconds`` have gone and at least
    ``min_units`` ran.  Each unit returns a list of passes."""
    passes, units = [], 0
    start = time.perf_counter()
    while units < min_units or time.perf_counter() - start < seconds:
        passes += one_unit()
        units += 1
    return passes


def run_figures(ck: Checkout, size: str, seconds: float, traced: bool = False,
                min_passes: int = FIGURE_PASSES) -> list:
    def one_pass():
        ops = []
        for fig in workloads.FIGURES:
            argv = ["figure", str(fig)]
            steps = workloads.FIGURE_STEPS[size][fig]
            if steps is not None:
                argv += ["--steps", str(steps)]
            ops.append(ck.cli_op(f"fig{fig}", argv, ck.work / f"fig{fig}.csv", traced))
        return [Pass(sum(op.latency_s for op in ops), ops)]

    return _until(seconds, one_pass, min_passes)


def run_sweep(ck: Checkout, size: str, seconds: float, traced: bool = False) -> list:
    config = ck.work / "sweep.cfg"
    config.write_text(workloads.SWEEP_CONFIG[size], encoding="utf-8")

    def one_pass():
        op = ck.cli_op("sweep", ["sweep", "--config", str(config)],
                       ck.work / "sweep.csv", traced)
        return [Pass(op.latency_s, [op])]

    return _until(seconds, one_pass)


def _points_worker(ck: Checkout, seed: int, first_round: int, rounds: int,
                   seconds: float, traced: bool) -> list:
    """Rounds ``first_round``... of the seeded stream in one worker process:
    ``rounds`` of them, or whole rounds for ``seconds`` when ``rounds`` is 0."""
    run = ck.worker(["points", str(seed), str(first_round), str(rounds), str(seconds)],
                    traced)
    if run.result is None:
        return [Pass(run.wall_s, [Op("points", run.wall_s, None, "", run.error, 0.0)])]
    ops = []
    for call in run.result["calls"]:
        code, error = call["returncode"], call["error"]
        if error is None and code != 0:
            error = f"exit {code}"
        ops.append(Op(workloads.point_key(call["argv"]), call["main_s"], call["main_s"],
                      call["output"], error, run.result["rss_mb"], point=True,
                      closed_form_kd=call.get("closed_form_kd")))
    per_round = len(ops) // len(run.result["round_s"])
    return [Pass(wall_s, ops[i * per_round:(i + 1) * per_round])
            for i, wall_s in enumerate(run.result["round_s"])]


def run_points(ck: Checkout, seed: int, seconds: float, rounds: int = 0,
               traced: bool = False) -> list:
    """The seeded points stream: exactly ``rounds`` rounds in one worker, or,
    when ``rounds`` is 0, chunks of POINTS_CHUNK_S until ``seconds`` passed."""
    if rounds:
        return _points_worker(ck, seed, 0, rounds, 0.0, traced)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes += _points_worker(ck, seed, len(passes), 0,
                                 min(POINTS_CHUNK_S, seconds), traced)
    return passes


def judge(op: Op, references: dict) -> tuple:
    """(failed, cells changed at 12 digits) of one operation."""
    if op.error is not None:
        return True, 0
    ok, changed = True, 0
    if op.point:
        ok = check.point_invariants(op.output, op.closed_form_kd)
    reference = references.get(op.key)
    if reference is not None:
        within, changed = check.compare(op.output, reference)
        ok = ok and within
    elif not op.point:
        ok = False  # every figure and sweep has a stored reference
    return not ok, changed


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _rows(op: Op) -> int:
    return len(check.parse_table(op.output)[1])


def end_to_end(passes: list, setup: list) -> tuple:
    """(metrics, report-only metrics, notes, raw samples), tracing off."""
    good = [p for p in passes if all(op.error is None for op in p.ops)]
    if not good:
        raise RuntimeError("every pass had a failed operation; nothing to measure")
    ops = [op for p in good for op in p.ops]
    latencies = [op.latency_s for op in ops]
    samples = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in good],
        "points_per_s": [sum(_rows(op) for op in p.ops) / sum(op.main_s for op in p.ops)
                         for p in good],
    }
    # The fastest pass, not the median: on a shared 2-core x86-64 VM the
    # host's speed moved by up to 2x in phases of 10-20 s, which shifted
    # whole-run medians by up to 38%; the fastest pass is the measurement
    # such phases disturb least.
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": min(samples["wall_s"]),
        "points_per_s": max(samples["points_per_s"]),
        "peak_rss_mb": max(op.rss_mb for op in ops),
    }
    report = {
        "wall_median_s": statistics.median(samples["wall_s"]),
        "point_p50_ms": 1e3 * percentile(latencies, 50),
        "point_p95_ms": 1e3 * percentile(latencies, 95),
    }
    beyond = len(latencies) // 20
    notes = {
        "setup_s": f"median of {len(setup)} fresh `python -m macrolens.cli --version`",
        "wall_s": f"fastest of {len(good)} passes",
        "points_per_s": "best pass: result rows / time inside cli.main",
        "wall_median_s": f"median of {len(good)} passes",
        "peak_rss_mb": "largest max-RSS of a worker process",
        "point_p50_ms": f"{len(latencies)} operations",
        "point_p95_ms": f"{len(latencies)} operations, {beyond} beyond"
                        + ("" if beyond >= 10 else ": too few to trust"),
    }
    return metrics, report, notes, samples


def figure_times(passes: list) -> dict:
    """fig{N}_s: fastest time around cli.main of each figure command."""
    times = {}
    for p in passes:
        for op in p.ops:
            if op.error is None:
                times.setdefault(f"{op.key}_s", []).append(op.main_s)
    return {name: min(values) for name, values in sorted(times.items())}


def run_workload(ck: Checkout, workload: str, size: str, seed: int, seconds: float) -> list:
    if workload == "figures":
        return run_figures(ck, size, seconds)
    if workload == "pnrd-sweep":
        return run_sweep(ck, size, seconds)
    return run_points(ck, seed, seconds)


def trace_run(ck: Checkout, workload: str, size: str, seed: int, seconds: float) -> tuple:
    """(untraced passes, traced passes, per-layer metrics): one untraced
    figure pass, sweep or timed points stream, then the same work traced."""
    if workload == "points":
        plain = run_points(ck, seed, seconds)
        traced = run_points(ck, seed, 0, rounds=len(plain), traced=True)
    elif workload == "figures":
        plain = run_figures(ck, size, 0, min_passes=1)
        traced = run_figures(ck, size, 0, traced=True, min_passes=1)
    else:
        plain = run_sweep(ck, size, 0)
        traced = run_sweep(ck, size, 0, traced=True)
    all_spans = []
    for path in ck.trace_files:
        all_spans += spans.with_self_times(spans.read_spans(path))
    metrics = spans.layer_metrics(all_spans)
    plain_wall = sum(p.wall_s for p in plain)
    metrics["trace.overhead_share"] = (sum(p.wall_s for p in traced) - plain_wall) / plain_wall
    return plain, traced, metrics


def _print_table(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")


def main(argv=None, reference_path=check.REFERENCE_PATH) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny figure and sweep sizes, for the self-tests")
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"

    try:
        ck = Checkout(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                      0 if args.trace else SETUP_SAMPLES_PER_WORKER[args.workload])
        print(f"macrolens benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} size={size}")
        reference = check.load_reference(reference_path)
        references = {**reference["points"], **reference[size]}
        if args.trace:
            plain, traced, metrics = trace_run(ck, args.workload, size, args.seed,
                                               args.seconds)
            passes = plain + traced
        else:
            passes = run_workload(ck, args.workload, size, args.seed, args.seconds)
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    ops = [op for p in passes for op in p.ops]
    verdicts = [judge(op, references) for op in ops]
    failed = sum(bad for bad, _ in verdicts)
    changed = sum(n for _, n in verdicts)
    for op, (bad, _) in zip(ops, verdicts):
        if bad:
            print(f"  FAILED {op.key}: {op.error or 'output differs from the reference'}")

    env = {**ck.env_record, "blas_threads": BLAS_THREADS,
           "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
           "commit": git_commit()}
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics["figures.cells_changed"] = changed
        units = PER_LAYER
        selfs = {k: v for k, v in metrics.items() if k in spans.SELF_TIME_METRICS}
        print(f"  per-layer metrics of the traced run ({len(ops)} operations, "
              f"largest self time: {max(selfs, key=selfs.get)})")
        _print_table(metrics, units, {})
        report, samples = {}, {}
    else:
        try:
            metrics, report, notes, samples = end_to_end(passes, ck.setup_samples)
        except RuntimeError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        units = END_TO_END
        if args.workload == "figures":
            report.update(figure_times(passes))
        report["fail_ratio"] = failed / len(ops)
        report["cells_changed"] = changed
        notes["fail_ratio"] = f"{failed} failed of {len(ops)} attempted"
        notes["cells_changed"] = "cells whose 12-digit rendering differs from the reference"
        print("  end-to-end metrics, tracing off")
        _print_table(metrics, units, notes)
        _print_table(report, REPORT_UNITS, notes)
    (ck.work / "result.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "report": report,
                    "samples": samples}, indent=1),
        encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
