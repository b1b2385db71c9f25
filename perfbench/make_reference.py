#!/usr/bin/env python3
"""Regenerate perfbench/reference.json.gz from the checkout's macrolens.

    python3 perfbench/make_reference.py

Stores, for both sizes, the eight figure tables and the sweep table, and the
output of the first REFERENCE_ROUNDS rounds of compute points for seeds
0..REFERENCE_SEEDS-1.  Run it only at a commit whose outputs are trusted:
the benchmark counts every later difference against these tables.
"""

from __future__ import annotations

import sys

import check
import run
import workloads

REFERENCE_SEEDS = 10
REFERENCE_ROUNDS = 4


def _outputs(passes: list) -> dict:
    outputs = {}
    for p in passes:
        for op in p.ops:
            if op.error is not None:
                raise SystemExit(f"{op.key} failed: {op.error}")
            outputs[op.key] = op.output
    return outputs


def main() -> int:
    ck = run.Checkout("make-reference")
    reference = {"commit": run.git_commit(), "points": {}}
    for size in workloads.SIZES:
        reference[size] = {
            **_outputs(run.run_figures(ck, size, 0, min_passes=1)),
            **_outputs(run.run_sweep(ck, size, 0)),
        }
    for seed in range(REFERENCE_SEEDS):
        reference["points"].update(
            _outputs(run.run_points(ck, seed, 0, rounds=REFERENCE_ROUNDS)))
    check.save_reference(reference)
    print(f"wrote {check.REFERENCE_PATH} at commit {reference['commit']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
