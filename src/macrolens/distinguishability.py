"""Branch sets, complement mixtures, and distinguishability measures.

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
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError, MacrolensError
from .fock import Ensemble, FockVector, pad_to_cutoff
from .measurement import (
    HOMODYNE,
    PNRD,
    DetectorModel,
    Pdf,
    Pmf,
    blur_pdf,
    blur_pmf,
    default_homodyne_grid,
    homodyne_pdf,  # unused here but the perfbench/spans.py tracer still wraps it
    homodyne_pdfs,
    pnrd_pmf,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9


@dataclass(frozen=True)
class BranchSet:
    """Coefficients c_k and normalized branches |b_k>, k = 0..B-1."""

    coefficients: np.ndarray
    branches: tuple

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        branches = tuple(self.branches)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise InvalidArgumentError("need at least two branch coefficients")
        if len(branches) != coeffs.size:
            raise InvalidArgumentError("coefficients and branches differ in length")
        for b in branches:
            if not isinstance(b, FockVector):
                raise InvalidArgumentError("branches must be FockVectors")
        total = float(np.sum(np.abs(coeffs) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise InvalidArgumentError(f"sum |c_k|^2 = {total}, expected 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "branches", branches)

    @property
    def size(self) -> int:
        return len(self.branches)

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def complement_mixture(branch_set: BranchSet, k: int) -> Ensemble:
    """Renormalized mixture of every branch except branch k (0-based)."""
    if not 0 <= k < branch_set.size:
        raise InvalidArgumentError(
            f"branch index {k} out of range for {branch_set.size} branches"
        )
    weights = branch_set.weights
    rest = [(weights[l], branch_set.branches[l]) for l in range(branch_set.size) if l != k]
    total = sum(w for w, _ in rest)
    return Ensemble(tuple((w / total, s) for w, s in rest))


def _l1_and_overlap(p, q) -> tuple[float, float]:
    """(integral |P-Q|, integral sqrt(P*Q)) over a shared support."""
    if isinstance(p, Pdf) and isinstance(q, Pdf):
        if not p.same_grid(q):
            raise GridMismatchError("pdfs live on different grids")
        diff = np.abs(p.values - q.values)
        overlap = np.sqrt(p.values * q.values)
        return (
            float(np.trapezoid(diff, dx=p.dx)),
            float(np.trapezoid(overlap, dx=p.dx)),
        )
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.cutoff != q.cutoff:
            raise GridMismatchError("pmfs have different supports")
        a, b = p.probabilities, q.probabilities
        return float(np.abs(a - b).sum()), float(np.sqrt(a * b).sum())
    raise GridMismatchError("cannot compare a Pdf with a Pmf")


def _clamp01(value: float, name: str) -> float:
    if math.isnan(value):
        raise MacrolensError(f"{name} is NaN")
    if value < -_CLAMP_SLACK or value > 1.0 + _CLAMP_SLACK:
        log.warning("%s = %.3e clamped to [0, 1]", name, value)
    return min(1.0, max(0.0, value))


def bhattacharyya_coeff(p, q) -> float:
    """Overlap Omega = integral sqrt(P*Q); 1 for identical distributions."""
    _, overlap = _l1_and_overlap(p, q)
    return _clamp01(overlap, "bhattacharyya")


def kolmogorov_distance(p, q) -> float:
    """KD = (1/2) integral |P - Q|; related to the single-shot error
    probability through PE = (1 - KD) / 2."""
    l1, _ = _l1_and_overlap(p, q)
    return _clamp01(0.5 * l1, "kolmogorov")


def error_probability(kd: float) -> float:
    """Minimum single-shot misidentification probability for a given KD."""
    return (1.0 - kd) / 2.0


def branch_distributions(branch_set: BranchSet, detector: DetectorModel) -> list:
    """Per-branch outcome distributions, aligned on one shared grid and
    blurred by the detector resolution."""
    branches = branch_set.branches
    if detector.kind == HOMODYNE:
        grid = default_homodyne_grid(branches, detector.angle, detector.sigma)
        dists = homodyne_pdfs(branches, detector.angle, grid)
        if detector.sigma > 0.0:
            dists = [blur_pdf(d, detector.sigma) for d in dists]
        return dists
    assert detector.kind == PNRD
    cutoff = max(b.cutoff for b in branches)
    pmfs = [pnrd_pmf(pad_to_cutoff(b, cutoff)) for b in branches]
    if detector.sigma > 0.0:
        # one shared effective support keeps all branches on the same grid
        top = max(int(p.support[-1]) for p in pmfs)
        return [blur_pmf(p, detector.sigma, n_max=top) for p in pmfs]
    return pmfs


def _complement_distribution(dists: list, weights: np.ndarray, k: int):
    """Outcome distribution of the complement mixture of branch k.

    Blurring and measurement are linear in the state, so the mixture's
    distribution is the weight-average of the other branches' distributions.
    """
    rest = [l for l in range(len(dists)) if l != k]
    w = weights[rest] / weights[rest].sum()
    if isinstance(dists[0], Pdf):
        values = sum(wi * dists[l].values for wi, l in zip(w, rest))
        ref = dists[0]
        return Pdf(ref.grid_min, ref.grid_max, ref.n_points, values)
    values = sum(wi * dists[l].probabilities for wi, l in zip(w, rest))
    return Pmf(values)


def both_measures(branch_set: BranchSet, detector: DetectorModel) -> tuple[float, float]:
    """(D_BC, D_KD) computed from one shared set of outcome distributions."""
    dists = branch_distributions(branch_set, detector)
    weights = branch_set.weights
    overlap_total = 0.0
    kd_total = 0.0
    for k in range(branch_set.size):
        comp = _complement_distribution(dists, weights, k)
        l1, overlap = _l1_and_overlap(dists[k], comp)
        overlap_total += weights[k] * overlap
        kd_total += weights[k] * 0.5 * l1
    return (
        _clamp01(1.0 - overlap_total, "d_bc"),
        _clamp01(kd_total, "d_kd"),
    )


def d_bc(branch_set: BranchSet, detector: DetectorModel) -> float:
    """Bhattacharyya-based distinguishability of the branch mixture."""
    return both_measures(branch_set, detector)[0]


def d_kd(branch_set: BranchSet, detector: DetectorModel) -> float:
    """Kolmogorov-based distinguishability of the branch mixture."""
    return both_measures(branch_set, detector)[1]


def dfs_kd_closed_form(alpha: float) -> float:
    """Closed-form Kolmogorov distinguishability of displaced
    (|0> +- |1>)/sqrt(2) branches under ideal photon counting:

        e^{-alpha^2} * alpha * sum_m alpha^{2m-2} / m! * |m - alpha^2|

    Defined for real alpha > 0; the series has non-differentiable cusps at
    alpha^2 in {1, 2, 3, ...} where one term vanishes.
    """
    if isinstance(alpha, complex) or not math.isfinite(alpha) or alpha <= 0.0:
        raise InvalidArgumentError("closed form requires a real alpha > 0")
    a2 = alpha * alpha
    total = 0.0
    small_run = 0
    m = 0
    while small_run < 3 and m < 100000:
        term = math.exp((2 * m - 2) * math.log(alpha) - math.lgamma(m + 1)) * abs(m - a2)
        total += term
        small_run = small_run + 1 if term < 1e-16 else 0
        m += 1
    return _clamp01(math.exp(-a2) * alpha * total, "dfs_kd_closed_form")
