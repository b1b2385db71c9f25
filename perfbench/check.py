"""Correctness checks of the benchmark's outputs.

An operation fails when it raises, exits non-zero, or gives a value outside
the tolerance of acceptance criterion 10, ``1e-6*max(|a|,|b|) + 1e-10``,
against the reference stored with the benchmark.  Separately, a cell counts
as changed when its 12-significant-digit rendering differs from the
reference; that is reported as a count, not as a failure.  Compute points
without a stored reference are checked against invariants instead.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json.gz")

_REL_TOL = 1e-6
_ABS_TOL = 1e-10


def load_reference(path=REFERENCE_PATH) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save_reference(reference: dict, path=REFERENCE_PATH) -> None:
    # mtime=0 keeps the file identical when the outputs are
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(reference, indent=0, sort_keys=True) + "\n").encode())


def parse_table(text: str) -> tuple:
    """(columns, rows) of a ResultTable CSV; '#' metadata lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def within(x: float, y: float) -> bool:
    return abs(x - y) <= _REL_TOL * max(abs(x), abs(y)) + _ABS_TOL


def close(a: str, b: str) -> bool:
    """Two table cells agree: numbers within tolerance, text exactly."""
    try:
        return within(float(a), float(b))
    except ValueError:
        return a == b


def compare(text: str, reference: str) -> tuple:
    """(within tolerance, cells changed at 12 digits) of a table against its
    reference.  Columns the reference lacks are ignored; a missing column or
    a different row count fails and changes every reference cell."""
    columns, rows = parse_table(text)
    ref_columns, ref_rows = parse_table(reference)
    if (not set(ref_columns) <= set(columns) or len(rows) != len(ref_rows)
            or any(len(row) != len(columns) for row in rows)):
        return False, len(ref_columns) * len(ref_rows)
    index = [columns.index(name) for name in ref_columns]
    ok, changed = True, 0
    for row, ref_row in zip(rows, ref_rows):
        for i, ref_cell in zip(index, ref_row):
            if row[i] != ref_cell:
                changed += 1
                ok = ok and close(row[i], ref_cell)
    return ok, changed


def point_invariants(text: str, closed_form_kd=None) -> bool:
    """0 <= D <= 1, N >= 0, M = N*D, and for ideal-PNRD dfs points
    D_KD equal to dfs_kd_closed_form."""
    columns, rows = parse_table(text)
    if len(rows) != 1 or len(rows[0]) != len(columns):
        return False
    try:
        v = {name: float(cell) for name, cell in zip(columns, rows[0])
             if name not in ("family", "sign", "detector")}
        ok = (
            v["n_fluct"] >= 0.0
            and 0.0 <= v["d_bc"] <= 1.0
            and 0.0 <= v["d_kd"] <= 1.0
            and within(v["m_bc"], v["n_fluct"] * v["d_bc"])
            and within(v["m_kd"], v["n_fluct"] * v["d_kd"])
        )
    except (KeyError, ValueError):
        return False
    if closed_form_kd is not None:
        ok = ok and within(v["d_kd"], closed_form_kd)
    return ok
