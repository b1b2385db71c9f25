"""Branch sets and their distinguishability measures.

Given branches |b_k> with coefficients c_k, an observer who collapses the
heralding mode sees the mixture rho = sum_k |c_k|^2 |b_k><b_k|.  The two
measures implemented here compare, for each branch, the detector outcome
distribution of |b_k> with that of the renormalized mixture of the
remaining branches:

    D_BC = 1 - sum_k |c_k|^2 Omega(P_k, P_complement_k)
    D_KD = sum_k (|c_k|^2 / 2) * integral |P_k - P_complement_k|

where Omega is the Bhattacharyya coefficient.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass
from functools import partial

import numpy as np

from .errors import InvalidArgumentError, MacrolensError
from .fock import FockVector
from .measurement import (
    HOMODYNE,
    DetectorModel,
    blur_differences,
    blur_pdf,  # unused here but the perfbench/spans.py tracer still wraps it
    blur_pdfs,
    blur_pmf,  # unused here but the perfbench/spans.py tracer still wraps it
    blur_pmfs,
    checked_rows,
    default_homodyne_grid,
    frame_pdfs,
    homodyne_pdf,  # unused here but the perfbench/spans.py tracer still wraps it
    pnrd_pmf,  # unused here but the perfbench/spans.py tracer still wraps it
    pnrd_pmfs,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9
# Blurred photon counts of neighbouring outcomes overlap by exp(-1/(8 sigma^2)),
# which is below 1e-16 for sigma up to this (about 0.058).
_SHARP_PNRD_SIGMA = 1.0 / math.sqrt(8.0 * math.log(1e16))
# Largest |r| of a frame stretch whose e^{+-r} is a finite float
_MAX_STRETCH = math.log(np.finfo(float).max)


class _OnFirstRead:
    """A dataclass field that may also be given as a function of no
    arguments: the first read calls it and keeps what it returns."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # dataclass reads the field's default here
            return self.default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class BranchSet:
    """Coefficients c_k and normalized branches |b_k>, k = 0..B-1.

    ``frame = (stretch, cores, shifts)`` states that branch k is also
    D(shifts[k]) S(-stretch) applied to ``cores[k]``, a FockVector on a few
    levels, where S(-r) = exp[(r/2)(a^dag^2 - a^2)] stretches x by e^r and
    D(s) moves x by s.  Homodyne detection at every angle reads the cores
    (see measurement.frame_pdfs).  Without a frame the branch set carries its
    identity frame (0, branches, (0,) * B), which reads the branches
    themselves; so a copy with new branches needs a new frame or None.

    ``counts`` is the B x K table of photon-count probabilities, row k for
    branch k, which photon counting reads; None reads |c_kn|^2 of the
    branches, so a copy with new branches needs new counts or None too.
    The table is checked and made read-only on first read.  ``branches``
    and ``counts`` may each be a function of no arguments, called on the
    first read of the attribute, and checked then as given ones are at
    construction: branches given so need a frame and counts.
    """

    coefficients: np.ndarray
    branches: tuple = _OnFirstRead()
    frame: tuple | None = None
    counts: np.ndarray | None = _OnFirstRead(None)

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise InvalidArgumentError("need at least two branch coefficients")
        branches, counts = self.__dict__["branches"], self.__dict__["counts"]
        if callable(branches):
            if self.frame is None or counts is None:
                raise InvalidArgumentError("branches built on demand need a frame and counts")
            branches = partial(_checked_branches, branches, coeffs.size)
        else:
            branches = _checked_branches(branches, coeffs.size)
            if counts is None:
                counts = partial(pnrd_pmfs, branches)
        object.__setattr__(self, "branches", branches)
        frame = (0.0, branches, (0.0,) * coeffs.size) if self.frame is None else self.frame
        if not (len(frame) == 3 and len(frame[1]) == len(frame[2]) == coeffs.size):
            raise InvalidArgumentError("a frame needs one core and one shift per branch")
        if not all(isinstance(core, FockVector) for core in frame[1]):
            raise InvalidArgumentError("frame cores must be FockVectors")
        if not (abs(frame[0]) <= _MAX_STRETCH and all(map(math.isfinite, frame[2]))):
            raise InvalidArgumentError("a frame needs finite shifts and a finite e^|stretch|")
        weights = np.abs(coeffs) ** 2
        total = float(np.sum(weights))
        if abs(total - 1.0) > 1e-10:
            raise InvalidArgumentError(f"sum |c_k|^2 = {total}, expected 1")
        # a lone branch of nonzero weight has no complement to compare with
        if np.count_nonzero(weights) < 2:
            raise InvalidArgumentError("need at least two branches of nonzero weight")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "counts", partial(_checked_counts, counts, coeffs.size))

    @property
    def size(self) -> int:
        return self.coefficients.size

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def _checked_branches(branches, size: int) -> tuple:
    """The branches (or what the function ``branches`` returns) as a tuple,
    checked to hold ``size`` FockVectors, one per coefficient."""
    branches = tuple(branches() if callable(branches) else branches)
    if len(branches) != size or not all(isinstance(b, FockVector) for b in branches):
        raise InvalidArgumentError(f"need {size} FockVector branches, one per coefficient")
    return branches


def _checked_counts(counts, size: int) -> np.ndarray:
    """A copy of the count table (or of what the function ``counts`` returns),
    checked as photon-count rows, one per branch, and read-only."""
    rows = np.array(counts() if callable(counts) else counts, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != size:
        raise InvalidArgumentError("counts need one row of probabilities per branch")
    return checked_rows(rows, None)


def _complement_weights(weights) -> np.ndarray:
    """Row k holds the weights of the complement mixture of branch k: the
    other branches' weights, renormalized.  Its product with a table of rows
    gives the complements' rows, as measurement and blur are linear in the
    state."""
    mix = weights * (1.0 - np.eye(len(weights)))
    return mix / mix.sum(axis=1, keepdims=True)


def _integral(grid):
    """The integral of one row over ``grid``: the trapezoid rule, or the sum
    of probabilities when grid is None."""
    if grid is None:
        return np.sum
    dx = (grid[1] - grid[0]) / (grid[2] - 1)

    def integrate(y):  # np.trapezoid(y, dx=dx), without its per-call overhead
        return (dx * (y[1:] + y[:-1]) / 2.0).sum()
    return integrate


def _overlap_and_kd(rows: np.ndarray, grid, weights) -> tuple[float, float]:
    """(sum_k w_k Omega(P_k, Q_k), sum_k w_k KD(P_k, Q_k)) of the B x G table of
    densities on ``grid``, or of probabilities when grid is None.

    Q_k, the distribution of the complement mixture of branch k, is the
    weight-average of the other rows: one product with _complement_weights.
    """
    integrate = _integral(grid)
    complements = _complement_weights(weights) @ rows
    # one row at a time, so the integrands and their temporaries stay 1 x G
    pairs = list(zip(rows, complements))
    l1 = np.array([integrate(np.abs(p - q)) for p, q in pairs])
    overlap = np.array([integrate(np.sqrt(p * q)) for p, q in pairs])
    return float(np.sum(weights * overlap)), float(np.sum(weights * 0.5 * l1))


def _clamp01(value: float, name: str) -> float:
    if math.isnan(value):
        raise MacrolensError(f"{name} is NaN")
    if value < -_CLAMP_SLACK or value > 1.0 + _CLAMP_SLACK:
        log.warning("%s = %.3e clamped to [0, 1]", name, value)
    return min(1.0, max(0.0, value))


def branch_distributions(branch_set: BranchSet, detector: DetectorModel) -> tuple:
    """The branches' outcome distributions as one checked, read-only B x G
    table, and its grid: densities, or photon-count probabilities when the
    grid is None.

    Homodyne detection reads the branch set's frame at the detector's angle;
    photon counting reads its count rows.  Photon counting at sigma <=
    _SHARP_PNRD_SIGMA returns the count rows, which equal the blurred
    densities to double precision.
    """
    if detector.kind != HOMODYNE:
        if detector.sigma <= _SHARP_PNRD_SIGMA:
            return branch_set.counts, None
        rows, grid = blur_pmfs(branch_set.counts, detector.sigma)
    else:
        rows, grid = blur_pdfs(*_homodyne_rows(branch_set, detector), detector.sigma)
    return checked_rows(rows, grid), grid


def _homodyne_rows(branch_set: BranchSet, detector: DetectorModel) -> tuple:
    """The branches' unblurred densities at the detector's angle as one B x G
    table, on a grid with room for the detector's blur, and that grid."""
    grid = default_homodyne_grid(*branch_set.frame, detector.angle, detector.sigma)
    return frame_pdfs(*branch_set.frame, detector.angle, grid), grid


def both_measures(branch_set: BranchSet, detector: DetectorModel) -> tuple[float, float]:
    """(D_BC, D_KD) computed from one shared table of outcome distributions."""
    rows, grid = branch_distributions(branch_set, detector)
    overlap, kd = _overlap_and_kd(rows, grid, branch_set.weights)
    return _clamp01(1.0 - overlap, "d_bc"), _clamp01(kd, "d_kd")


def d_bc(branch_set: BranchSet, detector: DetectorModel) -> float:
    """Bhattacharyya-based distinguishability of the branch mixture."""
    return both_measures(branch_set, detector)[0]


def d_kd(branch_set: BranchSet, detector: DetectorModel) -> float:
    """Kolmogorov-based distinguishability of the branch mixture.

    Blurred homodyne detection checks the unblurred table once and blurs its
    differences P_k - Q_k, not its rows: one FFT product for the whole table
    (see measurement.blur_differences), as D_KD reads no square root of a
    tail.  Every other detector takes both_measures' table.
    """
    if detector.kind != HOMODYNE or detector.sigma == 0.0:
        return both_measures(branch_set, detector)[1]
    rows, grid = _homodyne_rows(branch_set, detector)
    rows = checked_rows(rows, grid)
    weights = branch_set.weights
    diffs, grid = blur_differences(
        rows - _complement_weights(weights) @ rows, grid, detector.sigma
    )
    integrate = _integral(grid)
    l1 = np.array([integrate(np.abs(d)) for d in diffs])
    return _clamp01(float(np.sum(weights * 0.5 * l1)), "d_kd")


def dfs_kd_closed_form(alpha: float) -> float:
    """Closed-form Kolmogorov distinguishability of displaced
    (|0> +- |1>)/sqrt(2) branches under ideal photon counting:

        e^{-alpha^2} * alpha * sum_m alpha^{2m-2} / m! * |m - alpha^2|

    = E|n - lam| / alpha for n ~ Poisson(lam = alpha^2): the Poisson mean
    absolute deviation 2 e^{-lam} lam^{k+1} / k!, k = floor(lam), over alpha.
    Defined for real alpha > 0; it has non-differentiable cusps at alpha^2 in
    {1, 2, 3, ...}, where k steps.
    """
    if isinstance(alpha, complex) or not math.isfinite(alpha) or alpha <= 0.0:
        raise InvalidArgumentError("closed form requires a real alpha > 0")
    k = math.floor(alpha * alpha)
    kd = 2.0 * math.exp((2 * k + 1) * math.log(alpha) - alpha * alpha - math.lgamma(k + 1))
    return _clamp01(kd, "dfs_kd_closed_form")
