"""Result tables: single-point computations, parameter sweeps, and the
data behind each of the package's reference figures.

Everything here emits numbers, not images: each figure is a ResultTable
whose CSV/JSON rendering a plotting tool can consume directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import chain, groupby, islice

import numpy as np

from ._version import __version__
# css, n_fluct and report are unused here but the perfbench/spans.py tracer
# still wraps them by name as figures.css, figures.n_fluct and figures.report
from .catalog import FAMILIES, PARAM_NAMES, build, css
from .distinguishability import both_measures, d_kd, dfs_kd_closed_form
from .errors import InvalidArgumentError, UnsupportedRangeError
from .fock import Ensemble, coherent_state, superpose
from .macroscopicity import n_fluct, report
from .measurement import PNRD, DetectorModel, wigner

CONVENTION = "x=(a+adag)/sqrt(2); p=(a-adag)/(i*sqrt(2)); vacuum var=1/2"

ALL_MEASURES = ("n_fluct", "mean_n", "d_bc", "d_kd", "m_bc", "m_kd")

# Rows per run of _runs, so one %-format in ResultTable.to_csv: a chunk's
# format string and cells stay a few hundred kB however long the table is.
_CHUNK_ROWS = 4096

# numpy cannot even size a float64 array of about sys.maxsize / 8 entries and
# raises ValueError; below this bound a grid too large fails as MemoryError
_MAX_STEPS = sys.maxsize // 16


def _check_steps_bound(steps: int) -> None:
    if steps > _MAX_STEPS:
        raise UnsupportedRangeError(f"steps must be <= {_MAX_STEPS}, got {steps}")


def _fmt(value) -> str:
    return _spec(type(value)) % value


def _spec(kind: type) -> str:
    """The %-format of a cell of type ``kind``: text as is, integers in full,
    anything else at 12 significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.12g"


def _runs(rows):
    """Yield (cell types, row count, cells) for each run of consecutive rows
    that share one signature of cell types, the cells flat in row order,
    _CHUNK_ROWS rows at most per run: how ResultTable reads list rows and
    array rows alike.  Rows of a 2-D array are read as the Python scalars
    its tolist gives, one run per chunk."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        if isinstance(chunk, np.ndarray):
            cells = chunk.ravel().tolist()
            yield tuple(map(type, cells[:chunk.shape[1]])), len(chunk), cells
        else:
            for kinds, run in groupby(chunk, key=lambda row: tuple(map(type, row))):
                run = list(run)
                yield kinds, len(run), list(chain.from_iterable(run))


@dataclass
class ResultTable:
    """Rectangular table of results plus an audit metadata block.  The rows
    are a list of rows, or a 2-D numeric array."""

    columns: list
    rows: list | np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            ragged = self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns)
        else:
            ragged = any(len(row) != len(self.columns) for row in self.rows)
        if ragged:
            raise InvalidArgumentError("table rows must match the column count")

    def to_csv(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for kinds, count, cells in _runs(self.rows):
            lines.append("\n".join([",".join(map(_spec, kinds))] * count) % tuple(cells))
        lines.append("")  # the final newline, without a copy of the whole text
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only here: a CLI process that prints CSV never loads it

        def jsonify(v):
            if isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return int(v)
            return float(_fmt(v))  # 12-significant-digit rounding

        rows = []
        for kinds, count, cells in _runs(self.rows):
            values = map(jsonify, cells)
            rows.extend([list(islice(values, len(kinds))) for _ in range(count)])
        doc = {
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": rows,
        }
        return json.dumps(doc, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise InvalidArgumentError(f"unknown output format {fmt!r}")

    def column(self, name: str) -> list:
        return [row[self.columns.index(name)] for row in self.rows]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a parameter x sigma sweep."""

    family: str
    start: float
    stop: float
    steps: int
    detector: str
    sigmas: tuple
    angle: float = 0.0
    m: int = 1
    measures: tuple = ALL_MEASURES
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"unknown family {self.family!r}")
        if self.steps < 2:
            raise InvalidArgumentError("steps must be >= 2")
        _check_steps_bound(self.steps)
        if not self.start < self.stop:
            raise InvalidArgumentError("start must be less than stop")
        if not math.isfinite(self.stop - self.start):
            raise InvalidArgumentError("stop - start must be finite")
        if any(s < 0 for s in self.sigmas) or not self.sigmas:
            raise InvalidArgumentError("sigma entries must be >= 0")
        unknown = set(self.measures) - set(ALL_MEASURES)
        if unknown:
            raise InvalidArgumentError(f"unknown measures {sorted(unknown)}")
        if self.fmt not in ("csv", "json"):
            raise InvalidArgumentError(f"unknown format {self.fmt!r}")


# config key -> (SweepSpec field, parser of the value text)
_SWEEP_KEYS = {
    "family": ("family", str),
    "start": ("start", float),
    "stop": ("stop", float),
    "steps": ("steps", int),
    "detector": ("detector", str),
    "sigma": ("sigmas", lambda text: tuple(float(v) for v in text.split(","))),
    "angle": ("angle", float),
    "m": ("m", int),
    "measures": ("measures", lambda text: tuple(v.strip() for v in text.split(","))),
    "out": ("out", str),
    "format": ("fmt", str),
}


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a flat ``key = value`` config file into a SweepSpec.

    Unknown keys are errors; '#' starts a comment line.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SWEEP_KEYS:
            raise InvalidArgumentError(f"unknown config key {key!r} (line {lineno})")
        name, parse = _SWEEP_KEYS[key]
        if name in values:
            raise InvalidArgumentError(f"duplicate config key {key!r} (line {lineno})")
        try:
            values[name] = parse(value)
        except ValueError:
            raise InvalidArgumentError(
                f"bad value {value!r} for config key {key!r} (line {lineno})"
            ) from None
    required = {f.name for f in fields(SweepSpec) if f.default is MISSING}
    for key, (name, _) in _SWEEP_KEYS.items():
        if name in required and name not in values:
            raise InvalidArgumentError(f"config is missing the {key!r} key")
    return SweepSpec(**values)


def _base_metadata(**extra) -> dict:
    meta = {"tool_version": __version__, "convention": CONVENTION}
    meta.update(extra)
    return meta


def _cutoff_metadata(key: str, cutoffs) -> dict:
    """{key: the largest cutoff}, or {} when no point read count rows."""
    cutoffs = [c for c in cutoffs if c is not None]
    return {key: max(cutoffs)} if cutoffs else {}


@dataclass(frozen=True)
class _Point:
    """Numbers of one catalog state: N and <n> per sign (plus, minus) and
    the measure per detector, (D_BC, D_KD) or D_KD alone."""

    value: float
    n_fluct: tuple
    mean_n: tuple
    d_by_detector: dict
    cutoff: int | None
    fixed_params: dict


def _evaluate(family: str, values, detectors, measure, m: int = 1) -> list:
    """Build each state of ``family`` once per parameter value and evaluate
    ``measure`` (both_measures or d_kd) once per detector; every table but
    figure 1's is a layout of these.  Callers pass the measure as looked up
    when they run, so a wrapped both_measures is the one called."""
    param = PARAM_NAMES[family]
    # The count rows are as long as the larger branch's cutoff, and so are
    # psi_plus and psi_minus.  Homodyne numbers read the frame and N is in
    # closed form, so no truncated basis enters a point without a photon
    # counter, and it states no cutoff.
    counts_photons = any(det.kind == PNRD for det in detectors)
    points = []
    for value in values:
        state = build(family, **{param: float(value)}, m=m)
        points.append(_Point(
            value=float(value),
            n_fluct=state.n_fluct,
            mean_n=state.mean_n,
            d_by_detector={det: measure(state.branch_set, det) for det in detectors},
            cutoff=state.branch_set.counts.shape[1] if counts_photons else None,
            fixed_params={k: v for k, v in state.params.items() if k != param},
        ))
    return points


def compute(family: str, params: dict, detector: str, sigma: float,
            angle: float = 0.0, sign: int = -1) -> ResultTable:
    """One catalog state under one detector as a table row: a batch of one."""
    if family not in FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if sign not in (+1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    det = DetectorModel(detector, angle=angle, sigma=sigma)
    param = PARAM_NAMES[family]
    (p,) = _evaluate(family, [params[param]], [det], both_measures, params.get("m", 1))
    k = 0 if sign == +1 else 1
    n, (dist_bc, dist_kd) = p.n_fluct[k], p.d_by_detector[det]
    columns = [
        "family", "sign", "detector", "angle", "sigma", param,
        "mean_n", "n_fluct", "d_bc", "d_kd", "m_bc", "m_kd",
    ]
    row = [
        family, "+" if sign == +1 else "-", det.kind, det.angle, det.sigma, p.value,
        p.mean_n[k], n, dist_bc, dist_kd, n * dist_bc, n * dist_kd,
    ]
    meta = _base_metadata(**_cutoff_metadata("cutoff", [p.cutoff]), **p.fixed_params)
    return ResultTable(columns, [row], meta)


def sweep(spec: SweepSpec) -> ResultTable:
    """Cartesian product of parameter x sigma rows, ascending in both."""
    columns = [PARAM_NAMES[spec.family], "sigma"]
    for measure in spec.measures:
        if measure in ("d_bc", "d_kd"):
            columns.append(measure)
        else:
            columns.extend([f"{measure}_plus", f"{measure}_minus"])
    detectors = [DetectorModel(spec.detector, angle=spec.angle, sigma=s) for s in spec.sigmas]
    points = _evaluate(
        spec.family, np.linspace(spec.start, spec.stop, spec.steps), detectors,
        both_measures, spec.m,
    )
    rows = []
    for p in points:
        for det in detectors:
            dist_bc, dist_kd = p.d_by_detector[det]
            values = {
                "n_fluct": p.n_fluct,
                "mean_n": p.mean_n,
                "d_bc": (dist_bc,),
                "d_kd": (dist_kd,),
                "m_bc": tuple(n * dist_bc for n in p.n_fluct),
                "m_kd": tuple(n * dist_kd for n in p.n_fluct),
            }
            rows.append([p.value, det.sigma, *(v for m in spec.measures for v in values[m])])
    meta = _base_metadata(
        family=spec.family,
        detector=spec.detector,
        **_cutoff_metadata("max_cutoff", (p.cutoff for p in points)),
        **points[0].fixed_params,
    )
    return ResultTable(columns, rows, meta)


def _figure_wigner(steps: int) -> ResultTable:
    alpha = 1.5
    # Wigner values are amplitude-level quantities: the truncation tail must
    # sit below ~1e-20 for the mixture to stay non-negative to 1e-10.
    branches = tuple(coherent_state(a, 1e-16) for a in (alpha, -alpha))
    cat = superpose(*branches, -1)
    mixture = Ensemble(tuple((0.5, b) for b in branches))
    window = (-5.0, 5.0)
    sup, mix = (wigner(s, window, window, steps) for s in (cat, mixture))
    rows = np.column_stack((
        np.repeat(sup.xs, sup.ps.size),
        np.tile(sup.ps, sup.xs.size),
        sup.values.ravel(),
        mix.values.ravel(),
    ))
    meta = _base_metadata(
        figure="wigner",
        alpha=alpha,
        max_cutoff=cat.cutoff,
        grid_points=steps,
    )
    return ResultTable(["x", "p", "w_superposition", "w_mixture"], rows, meta)


def _figure_family(family: str, start: float, stop: float, steps: int) -> ResultTable:
    """N(psi_pm) and ideal-detector distinguishabilities vs the family parameter."""
    homodyne, pnrd = DetectorModel.homodyne(), DetectorModel.pnrd()
    points = _evaluate(family, np.linspace(start, stop, steps), (homodyne, pnrd), both_measures)
    param = PARAM_NAMES[family]
    if family == "dfs":
        columns = [
            param, "n_plus", "n_minus",
            "d_bc_homodyne", "d_kd_homodyne",
            "d_bc_pnrd", "d_kd_pnrd", "d_kd_closed_form",
        ]
        rows = [
            [p.value, *p.n_fluct, *p.d_by_detector[homodyne], *p.d_by_detector[pnrd],
             dfs_kd_closed_form(p.value) if p.value > 0 else 0.0]
            for p in points
        ]
    else:
        columns = [param, "n_plus", "n_minus", "d_bc", "d_kd", "d_pnrd"]
        rows = [
            [p.value, *p.n_fluct, *p.d_by_detector[homodyne], p.d_by_detector[pnrd][1]]
            for p in points
        ]
    meta = _base_metadata(
        figure=family, family=family, **_cutoff_metadata("max_cutoff", (p.cutoff for p in points))
    )
    return ResultTable(columns, rows, meta)


def _figure_noise(family: str, steps: int) -> ResultTable:
    """Kolmogorov distinguishability vs detector resolution sigma."""
    param, values = PARAM_NAMES[family], (0.5, 1.0, 2.0)
    sigmas = [float(s) for s in np.linspace(0.0, 4.0, steps)]
    kinds = ("homodyne", "pnrd") if family == "dfs" else ("homodyne",)
    columns = ["sigma"]
    for v in values:
        for kind in kinds:
            suffix = f"_{kind}" if len(kinds) > 1 else ""
            columns.append(f"d_kd{suffix}_{param}_{_fmt(v)}")
    points = _evaluate(
        family, values, [DetectorModel(kind, sigma=s) for s in sigmas for kind in kinds], d_kd
    )
    rows = []
    for sigma in sigmas:
        dets = [DetectorModel(kind, sigma=sigma) for kind in kinds]
        rows.append([sigma, *(p.d_by_detector[det] for p in points for det in dets)])
    meta = _base_metadata(
        figure=f"noise-{family}",
        family=family,
        **_cutoff_metadata("max_cutoff", (p.cutoff for p in points)),
        sigma_note="sigma is in detector-native units; homodyne and pnrd axes are not comparable",
    )
    return ResultTable(columns, rows, meta)


_SUMMARY_RANGES = {
    "css": (0.1, 3.0),
    "psv": (0.1, 2.0),
    "dfs": (0.1, 4.0),
}


def _figure_summary(steps: int) -> ResultTable:
    """Subjective macroscopicity m_kd against total photon number."""
    columns = [
        "family", "sign", "detector", "sigma", "param",
        "mean_n", "n_fluct", "d_kd", "m_kd",
    ]
    detectors = [DetectorModel(kind, sigma=s) for kind in ("homodyne", "pnrd") for s in (0.0, 2.0)]
    rows, cutoffs = [], []
    for family in FAMILIES:
        start, stop = _SUMMARY_RANGES[family]
        points = _evaluate(family, np.linspace(start, stop, steps), detectors, d_kd)
        cutoffs.extend(p.cutoff for p in points)
        for det in detectors:
            for p in points:
                dist_kd = p.d_by_detector[det]
                for sign, n, mean_n in zip("+-", p.n_fluct, p.mean_n):
                    rows.append([
                        family, sign, det.kind, det.sigma, p.value,
                        mean_n, n, dist_kd, n * dist_kd,
                    ])
    meta = _base_metadata(
        figure="summary",
        **_cutoff_metadata("max_cutoff", cutoffs),
        sigma_note="sigma is in detector-native units; homodyne and pnrd axes are not comparable",
    )
    return ResultTable(columns, rows, meta)


# figure id -> (alias, default steps, table builder taking the steps)
_FIGURES = {
    1: ("fig-wigner", 81, _figure_wigner),
    2: ("fig-css", 61, partial(_figure_family, "css", 0.05, 3.0)),
    3: ("fig-psv", 61, partial(_figure_family, "psv", 0.05, 2.5)),
    4: ("fig-dfs", 61, partial(_figure_family, "dfs", 0.0, 4.0)),
    5: ("fig-noise-css", 21, partial(_figure_noise, "css")),
    6: ("fig-noise-psv", 21, partial(_figure_noise, "psv")),
    7: ("fig-noise-dfs", 21, partial(_figure_noise, "dfs")),
    8: ("fig-summary", 21, _figure_summary),
}

FIGURE_ALIASES = {alias: fig_id for fig_id, (alias, _, _) in _FIGURES.items()}


def run_figure(figure, steps: int | None = None) -> ResultTable:
    """Emit the data table behind one reference figure (1-8 or alias)."""
    key = str(figure)
    try:
        fig_id = FIGURE_ALIASES.get(key) or int(key)
    except ValueError:
        raise InvalidArgumentError(f"unknown figure {figure!r}") from None
    if fig_id not in _FIGURES:
        raise InvalidArgumentError(f"figure id must be 1..8, got {fig_id}")
    _, default_steps, table = _FIGURES[fig_id]
    n = default_steps if steps is None else steps
    if n < 1:
        raise InvalidArgumentError(f"steps must be >= 1, got {n}")
    _check_steps_bound(n)
    return table(n)
