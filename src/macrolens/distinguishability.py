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
from functools import partial

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError, MacrolensError
from .fock import Ensemble, FockVector
from .measurement import (
    HOMODYNE,
    DetectorModel,
    Pdf,
    Pmf,
    blur_pdf,  # unused here but the perfbench/spans.py tracer still wraps it
    blur_pdfs,
    blur_pmf,  # unused here but the perfbench/spans.py tracer still wraps it
    blur_pmfs,
    default_homodyne_grid,
    homodyne_pdf,  # unused here but the perfbench/spans.py tracer still wraps it
    homodyne_pdfs,
    pnrd_pmf,  # unused here but the perfbench/spans.py tracer still wraps it
    pnrd_pmfs,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9
# Blurred photon counts of neighbouring outcomes overlap by exp(-1/(8 sigma^2)),
# which is below 1e-16 for sigma up to this (about 0.058).
_SHARP_PNRD_SIGMA = 1.0 / math.sqrt(8.0 * math.log(1e16))
_HALVES = np.array([0.5, 0.5])


@dataclass(frozen=True)
class BranchSet:
    """Coefficients c_k and normalized branches |b_k>, k = 0..B-1.

    An optional ``frame = (stretch, cores)`` states that branch k is also
    S(-stretch) applied to ``cores[k]``, a FockVector on a few levels,
    where S(-r) = exp[(r/2)(a^dag^2 - a^2)] stretches x by e^r.  Homodyne
    detection at phi = 0 then reads the cores instead of the branches.
    """

    coefficients: np.ndarray
    branches: tuple
    frame: tuple | None = None

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
        if self.frame is not None and len(self.frame[1]) != len(branches):
            raise InvalidArgumentError("frame cores and branches differ in length")
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


def _overlap_and_kd(dists, weights) -> tuple[float, float]:
    """(sum_k w_k Omega(P_k, Q_k), sum_k w_k KD(P_k, Q_k)) on a shared support.

    Q_k, the distribution of the complement mixture of branch k, is the
    weight-average of the other rows (measurement and blur are linear in the
    state): one product with the row-normalized, off-diagonal weights.
    """
    first = dists[0]
    if all(isinstance(d, Pdf) for d in dists):
        if not all(first.same_grid(d) for d in dists):
            raise GridMismatchError("pdfs live on different grids")
        rows = np.stack([d.values for d in dists])
        integrate = partial(np.trapezoid, dx=first.dx)
    elif all(isinstance(d, Pmf) for d in dists):
        if any(d.cutoff != first.cutoff for d in dists):
            raise GridMismatchError("pmfs have different supports")
        rows = np.stack([d.probabilities for d in dists])
        integrate = np.sum
    else:
        raise GridMismatchError("cannot compare a Pdf with a Pmf")
    mix = weights * (1.0 - np.eye(len(dists)))
    mix /= mix.sum(axis=1, keepdims=True)
    complements = mix @ rows
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


def bhattacharyya_coeff(p, q) -> float:
    """Overlap Omega = integral sqrt(P*Q); 1 for identical distributions."""
    return _clamp01(_overlap_and_kd([p, q], _HALVES)[0], "bhattacharyya")


def kolmogorov_distance(p, q) -> float:
    """KD = (1/2) integral |P - Q|; related to the single-shot error
    probability through PE = (1 - KD) / 2."""
    return _clamp01(_overlap_and_kd([p, q], _HALVES)[1], "kolmogorov")


def error_probability(kd: float) -> float:
    """Minimum single-shot misidentification probability for a given KD."""
    return (1.0 - kd) / 2.0


def _frame_pdfs(stretch: float, cores, grid) -> list[Pdf]:
    """x distributions of S(-stretch) applied to each core.  S(-r) dilates
    the x wavefunction, psi(x) = e^{-r/2} chi(x e^{-r}), so the Hermite
    table needs only the cores' levels."""
    lo, hi, n_points = grid
    shrink = math.exp(-stretch)
    pdfs = homodyne_pdfs(cores, 0.0, (lo * shrink, hi * shrink, n_points))
    return [Pdf(lo, hi, n_points, p.values * shrink) for p in pdfs]


def branch_distributions(branch_set: BranchSet, detector: DetectorModel) -> list:
    """Per-branch outcome distributions, aligned on one shared grid and
    blurred by the detector resolution.

    Homodyne detection at phi = 0 of a branch set with a frame is evaluated
    on its cores; every other case uses the branches' Fock amplitudes.
    Photon counting at sigma <= _SHARP_PNRD_SIGMA returns the unblurred
    Pmfs, which equal the blurred ones to double precision.
    """
    branches = branch_set.branches
    if detector.kind != HOMODYNE:
        rows = pnrd_pmfs(branches)
        return blur_pmfs(rows, detector.sigma) if detector.sigma > _SHARP_PNRD_SIGMA else rows
    grid = default_homodyne_grid(branches, detector.angle, detector.sigma)
    if branch_set.frame is not None and detector.angle == 0.0:
        rows = _frame_pdfs(*branch_set.frame, grid)
    else:
        rows = homodyne_pdfs(branches, detector.angle, grid)
    return blur_pdfs(rows, detector.sigma)


def both_measures(branch_set: BranchSet, detector: DetectorModel) -> tuple[float, float]:
    """(D_BC, D_KD) computed from one shared set of outcome distributions."""
    overlap, kd = _overlap_and_kd(
        branch_distributions(branch_set, detector), branch_set.weights
    )
    return _clamp01(1.0 - overlap, "d_bc"), _clamp01(kd, "d_kd")


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
