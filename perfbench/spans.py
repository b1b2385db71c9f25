"""Span tracer for the benchmark's traced run, and the per-layer metrics
computed from its spans.

The tracer wraps the public functions of each macrolens module from the
outside.  Modules bind names with ``from .x import y`` at import time, so a
function is patched in the namespace where its caller looks it up:
wrapping ``measurement.homodyne_pdf`` alone would record nothing, because
``distinguishability`` calls its own binding of that name.

Each span records its name, start, end, parent span and the operation
(one figure command, one sweep, one compute call) it belongs to.  Spans are
kept in memory and written as JSON lines when the worker ends.  Work
counters are computed from call arguments and results after the span has
ended; their small cost lands in the caller's self time and in
``trace.overhead_share``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

# Significance threshold of measurement.blur_pmf and the Wigner term skip
# threshold of measurement._wigner_pure, mirrored here to count their work.
_BLUR_SIGNIFICANT = 1e-16
_WIGNER_SKIP = 1e-18
# A blur Gaussian evaluated further than this from its outcome is waste.
_BLUR_USEFUL_SIGMAS = 9.0


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._hermite_seen = set()

    def begin_op(self, op: str) -> None:
        self.op = op
        self._hermite_seen = set()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1] if tracer._stack else None,
                "op": tracer.op,
                "name": name,
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span["attrs"] = count(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary of an imported macrolens package."""
        from macrolens import (catalog, cli, distinguishability, figures,
                               macroscopicity, measurement)

        wraps = [
            (cli, "main", "cli.main", None),
            (cli, "run_figure", "figures.run_figure", None),
            (cli, "compute", "figures.compute", None),
            (cli, "sweep", "figures.sweep", None),
            (figures.ResultTable, "render", "figures.render", None),
            (figures, "build", "catalog.build", _count_cutoffs),
            (figures, "css", "catalog.build", _count_cutoffs),
            (figures, "coherent_state", "fock.coherent_state", None),
            (figures, "both_measures", "distinguishability.both_measures", None),
            (figures, "dfs_kd_closed_form",
             "distinguishability.dfs_kd_closed_form", None),
            (figures, "n_fluct", "macroscopicity.n_fluct", None),
            (figures, "report", "macroscopicity.report", None),
            (figures, "wigner", "measurement.wigner", _count_wigner),
            (macroscopicity, "both_measures",
             "distinguishability.both_measures", None),
            # catalog.psv calls d_kd only to choose its homodyne angle
            (catalog, "d_kd", "catalog.angle_search", None),
            (catalog, "coherent_state", "fock.coherent_state", None),
            (catalog, "squeezed_vacuum", "fock.squeezed_vacuum", None),
            (catalog, "subtract_photons", "fock.subtract_photons", None),
            (catalog, "displace", "fock.displace", None),
            # d_kd looks both_measures up in its own module
            (distinguishability, "both_measures",
             "distinguishability.both_measures", None),
            (distinguishability, "homodyne_pdf", "measurement.homodyne_pdf", None),
            (distinguishability, "blur_pdf", "measurement.blur_pdf", None),
            (distinguishability, "blur_pmf", "measurement.blur_pmf", _count_blur_pmf),
            (distinguishability, "pnrd_pmf", "measurement.pnrd_pmf", None),
            (measurement, "hermite_functions", "measurement.hermite_functions",
             _count_hermite),
        ]
        for owner, attr, name, count in wraps:
            self.wrap(owner, attr, name, count)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count_hermite(tracer, args, kwargs, table):
    xs = np.atleast_1d(args[0])
    n_max = int(args[1] if len(args) > 1 else kwargs["n_max"])
    key = (xs.size, float(xs[0]), float(xs[-1]), n_max)
    cells = (n_max + 1) * xs.size
    reused = key in tracer._hermite_seen
    tracer._hermite_seen.add(key)
    return {"cells": cells, "reused_cells": cells if reused else 0}


def _count_blur_pmf(tracer, args, kwargs, pdf):
    probs = args[0].probabilities
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    outcomes = np.nonzero(probs > probs.max() * _BLUR_SIGNIFICANT)[0]
    dx = (pdf.grid_max - pdf.grid_min) / (pdf.n_points - 1)
    reach = _BLUR_USEFUL_SIGMAS * sigma
    first = np.maximum(0, np.ceil((outcomes - reach - pdf.grid_min) / dx))
    last = np.minimum(pdf.n_points - 1, np.floor((outcomes + reach - pdf.grid_min) / dx))
    useful = int(np.maximum(0, last - first + 1).sum())
    return {"cells": int(outcomes.size) * pdf.n_points, "useful_cells": useful}


def _count_cutoffs(tracer, args, kwargs, state):
    from macrolens.fock import tail_tolerance_default

    tol = kwargs.get("tail_tolerance") or tail_tolerance_default()
    used = minimal = 0
    for branch in state.branch_set.branches:
        mass = np.abs(branch.amplitudes) ** 2
        beyond = np.append(np.cumsum(mass[::-1])[::-1], 0.0) + branch.tail_mass
        meets = np.nonzero(beyond < tol)[0]
        used += branch.cutoff
        minimal += int(meets[0]) if meets.size else branch.cutoff
    return {"cutoff": used, "min_cutoff": minimal}


def _count_wigner(tracer, args, kwargs, field):
    from macrolens.fock import FockVector

    subject = args[0]
    states = [subject] if isinstance(subject, FockVector) else [
        s for _, s in subject.components
    ]
    terms = 0
    for state in states:
        mag = np.abs(state.amplitudes)
        terms += int(np.count_nonzero(np.tril(np.outer(mag, mag) >= _WIGNER_SKIP)))
    return {"terms": terms * field.values.size}


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def with_self_times(spans: list) -> list:
    """Add ``self``: duration minus the union of the child spans' intervals.

    ``spans`` must come from one process, whose span ids are unique.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        span["self"] = (span["end"] - span["start"]) - covered
    return spans


# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "measurement.hermite_s": ("measurement.hermite_functions",),
    "measurement.homodyne_self_s": ("measurement.homodyne_pdf",),
    "measurement.blur_pdf_s": ("measurement.blur_pdf",),
    "measurement.blur_pmf_s": ("measurement.blur_pmf",),
    "measurement.pnrd_pmf_s": ("measurement.pnrd_pmf",),
    "measurement.wigner_s": ("measurement.wigner",),
    "fock.displace_s": ("fock.displace",),
    "fock.squeezed_s": ("fock.squeezed_vacuum",),
    "fock.coherent_s": ("fock.coherent_state",),
    "fock.subtract_s": ("fock.subtract_photons",),
    "distinguishability.self_s": ("distinguishability.both_measures",
                                  "distinguishability.dfs_kd_closed_form"),
    "macroscopicity.self_s": ("macroscopicity.report", "macroscopicity.n_fluct"),
    "figures.self_s": ("figures.run_figure", "figures.compute", "figures.sweep"),
    "figures.render_s": ("figures.render",),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> span name whose whole duration it sums
INCLUSIVE_TIME_METRICS = {
    "catalog.build_s": "catalog.build",
    "catalog.angle_search_s": "catalog.angle_search",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer times, work counts and waste ratios from spans that
    already carry their self time."""
    self_by_name = defaultdict(float)
    inclusive_by_name = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(int)
    for span in spans:
        self_by_name[span["name"]] += span["self"]
        inclusive_by_name[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        for key, value in span.get("attrs", {}).items():
            attrs[f"{span['name']}.{key}"] += value
    metrics = {
        name: sum(self_by_name[s] for s in names)
        for name, names in SELF_TIME_METRICS.items()
    }
    metrics.update({
        name: inclusive_by_name[span_name]
        for name, span_name in INCLUSIVE_TIME_METRICS.items()
    })
    hermite_cells = attrs["measurement.hermite_functions.cells"]
    blur_cells = attrs["measurement.blur_pmf.cells"]
    cutoff = attrs["catalog.build.cutoff"]
    metrics.update({
        "measurement.hermite_cells": hermite_cells,
        "measurement.hermite_reuse_share": _share(
            attrs["measurement.hermite_functions.reused_cells"], hermite_cells),
        "measurement.blur_pmf_cells": blur_cells,
        "measurement.blur_pmf_useful_share": _share(
            attrs["measurement.blur_pmf.useful_cells"], blur_cells),
        "measurement.wigner_terms": attrs["measurement.wigner.terms"],
        "fock.displace_calls": calls["fock.displace"],
        "fock.cutoff_sum": cutoff,
        "fock.cutoff_overshoot": _share(cutoff, attrs["catalog.build.min_cutoff"]),
    })
    return metrics
