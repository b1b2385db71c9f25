"""Detector models and outcome distributions.

Homodyne detection at angle phi samples the rotated quadrature
x_phi = (a e^{-i phi} + a^dag e^{i phi}) / sqrt(2); a photon-number
resolving detector (PNRD) samples the photon number.  Finite detector
resolution is modeled as a Gaussian blur of width sigma applied to the
ideal outcome distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridCoverageError,
    GridMismatchError,
    InvalidArgumentError,
    UnsupportedRangeError,
    UsePmfDirectly,
)
from .fock import Ensemble, FockVector, quadrature_stats

HOMODYNE = "homodyne"
PNRD = "pnrd"

DEFAULT_GRID_POINTS = 2048
_MASS_TOL = 1e-6
_MAX_BLUR_POINTS = 2**22


@dataclass(frozen=True)
class DetectorModel:
    """Measurement kind plus Gaussian resolution sigma.

    sigma is in quadrature units for homodyne detection and in
    photon-number units for a PNRD; the two are not interconvertible.
    """

    kind: str
    angle: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (HOMODYNE, PNRD):
            raise InvalidArgumentError(f"unknown detector kind {self.kind!r}")
        if not math.isfinite(self.angle):
            raise InvalidArgumentError("angle must be finite")
        # the quadrature is 2 pi-periodic in phi; the phases e^{-i n phi} need n*phi finite
        object.__setattr__(self, "angle", math.fmod(self.angle, 2.0 * math.pi))
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidArgumentError("sigma must be finite and >= 0")

    @classmethod
    def homodyne(cls, angle: float = 0.0, sigma: float = 0.0) -> "DetectorModel":
        return cls(HOMODYNE, angle=angle, sigma=sigma)

    @classmethod
    def pnrd(cls, sigma: float = 0.0) -> "DetectorModel":
        return cls(PNRD, sigma=sigma)


@dataclass(frozen=True)
class Pdf:
    """Probability density sampled on a uniform grid."""

    grid_min: float
    grid_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_points < 64:
            raise InvalidArgumentError("a Pdf needs at least 64 grid points")
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max)):
            raise InvalidArgumentError("grid bounds must be finite")
        if self.grid_max <= self.grid_min:
            raise InvalidArgumentError("grid_max must exceed grid_min")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.n_points,):
            raise InvalidArgumentError("values length must equal n_points")
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("pdf has a non-finite value")
        if vals.min() < -1e-12:
            raise InvalidArgumentError(
                f"pdf has a negative value {vals.min()} below the noise floor"
            )
        np.clip(vals, 0.0, None, out=vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        mass = self.integral()
        if abs(mass - 1.0) > _MASS_TOL:
            raise InvalidArgumentError(f"pdf integrates to {mass}, expected 1")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.n_points)

    @property
    def dx(self) -> float:
        return (self.grid_max - self.grid_min) / (self.n_points - 1)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def mean(self) -> float:
        return float(np.trapezoid(self.xs * self.values, dx=self.dx))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.trapezoid((self.xs - mu) ** 2 * self.values, dx=self.dx))

    def same_grid(self, other: "Pdf") -> bool:
        return (
            self.n_points == other.n_points
            and self.grid_min == other.grid_min
            and self.grid_max == other.grid_max
        )


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over photon counts 0..cutoff-1."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidArgumentError("probabilities must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(probs)):
            raise InvalidArgumentError("pmf has a non-finite entry")
        if probs.min() < -1e-12:
            raise InvalidArgumentError("pmf has a significantly negative entry")
        np.clip(probs, 0.0, None, out=probs)
        total = probs.sum()
        if abs(total - 1.0) > 1e-8:
            raise InvalidArgumentError(f"pmf sums to {total}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def cutoff(self) -> int:
        return self.probabilities.size

    @property
    def support(self) -> np.ndarray:
        """Outcomes above 1e-16 of the largest probability."""
        return np.nonzero(self.probabilities > self.probabilities.max() * 1e-16)[0]


def hermite_functions(x, n_max: int):
    """Harmonic-oscillator eigenfunctions psi_n(x) for n = 0..n_max.

    psi_n(x) = H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!)), evaluated with
    the normalized three-term recurrence.  To stay accurate far into the
    classically forbidden region the Gaussian factor is carried as a
    separate per-point exponent, so values remain finite (underflowing
    cleanly to zero) for large |x| and n.

    Accepts a scalar or 1-D array; returns shape (n_max+1,) or
    (n_max+1, len(x)).
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be >= 0")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, xs.size))
    gauss_log = -0.5 * xs * xs
    prev = np.zeros_like(xs)
    cur = np.full_like(xs, math.pi ** -0.25)
    expo = np.zeros_like(xs)  # log of the factor pulled out of the recurrence
    factor = np.exp(expo + gauss_log)  # changes only when expo does
    out[0] = cur * factor
    rescale = 120.0 * math.log(10.0)
    for n in range(n_max):
        nxt = math.sqrt(2.0 / (n + 1)) * xs * cur - math.sqrt(n / (n + 1)) * prev
        prev, cur = cur, nxt
        while (big := np.abs(cur) > 1e120).any():
            prev[big] *= 1e-120
            cur[big] *= 1e-120
            expo[big] += rescale
            factor = np.exp(expo + gauss_log)
        out[n + 1] = cur * factor
    return out[:, 0] if scalar else out


def _check_grid(lo: float, hi: float) -> None:
    """Refuse a grid on which x^2 overflows (|x| beyond about 1.3e154)."""
    if not all(math.isfinite(float(x) * float(x)) for x in (lo, hi)):
        raise UnsupportedRangeError(f"grid [{lo}, {hi}] is too wide: x^2 overflows on it")


def _components(subject) -> list[tuple[float, FockVector]]:
    if isinstance(subject, FockVector):
        return [(1.0, subject)]
    if isinstance(subject, Ensemble):
        return list(subject.components)
    raise InvalidArgumentError("subject must be a FockVector or Ensemble")


def default_homodyne_grid(states, angle: float, sigma: float = 0.0) -> tuple[float, float, int]:
    """Grid spanning every state's rotated mean +- 6(sqrt(var)+sigma)+1."""
    stats = [quadrature_stats(s, angle) for s in states]
    means = [m for m, _ in stats]
    spread = 6.0 * (math.sqrt(max(v for _, v in stats)) + sigma) + 1.0
    return min(means) - spread, max(means) + spread, DEFAULT_GRID_POINTS


def homodyne_pdfs(states, angle: float, grid) -> list[Pdf]:
    """Quadrature distributions |sum_n c_n e^{-i n phi} psi_n(x)|^2 of pure
    states on one grid, from one Hermite table and one real matrix product
    of the real and imaginary rows of the rotated, zero-padded amplitudes."""
    grid_min, grid_max, n_points = grid
    _check_grid(grid_min, grid_max)
    cutoff = max(s.cutoff for s in states)
    psi = hermite_functions(np.linspace(grid_min, grid_max, n_points), cutoff - 1)
    phase = np.exp(-1j * np.arange(cutoff) * angle)
    rotated = phase * np.stack([np.pad(s.amplitudes, (0, cutoff - s.cutoff)) for s in states])
    waves = np.concatenate([rotated.real, rotated.imag]) @ psi
    values = waves[: len(states)] ** 2 + waves[len(states) :] ** 2
    mass = np.trapezoid(values, dx=(grid_max - grid_min) / (n_points - 1), axis=1).min()
    if mass < 1.0 - _MASS_TOL:
        raise GridCoverageError(
            f"grid [{grid_min}, {grid_max}] captures only {mass} of the state"
        )
    return [Pdf(grid_min, grid_max, n_points, v) for v in values]


def homodyne_pdf(subject, angle: float = 0.0, grid=None) -> Pdf:
    """Quadrature outcome distribution P(x) at the given homodyne angle.

    For a pure state P(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2; for an
    ensemble the weighted average of the component distributions.
    """
    weights, states = zip(*_components(subject))
    if grid is None:
        grid = default_homodyne_grid(states, angle)
    pdfs = homodyne_pdfs(states, angle, grid)
    return Pdf(*grid, sum(w * p.values for w, p in zip(weights, pdfs)))


def pnrd_pmfs(states) -> list[Pmf]:
    """Photon-count distributions P(n) = |c_n|^2 of pure states, padded to one cutoff."""
    cutoff = max(s.cutoff for s in states)
    amplitudes = np.stack([np.pad(s.amplitudes, (0, cutoff - s.cutoff)) for s in states])
    return [Pmf(p) for p in np.abs(amplitudes) ** 2]


def pnrd_pmf(subject) -> Pmf:
    """Photon-count distribution P(n) = |c_n|^2 (weight-averaged for mixtures)."""
    weights, states = zip(*_components(subject))
    return Pmf(sum(w * p.probabilities for w, p in zip(weights, pnrd_pmfs(states))))


def blur_pdfs(pdfs, sigma: float) -> list[Pdf]:
    """Convolve Pdfs that share one grid with one Gaussian kernel of width
    sigma, extending the grid by 6 sigma on both sides so no mass leaves it."""
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        return list(pdfs)
    first = pdfs[0]
    if not all(first.same_grid(p) for p in pdfs):
        raise GridMismatchError("pdfs live on different grids")
    _check_grid(first.grid_min - 6.0 * sigma, first.grid_max + 6.0 * sigma)
    dx = first.dx
    pad = math.ceil(6.0 * sigma / dx)
    rows = np.pad(np.stack([p.values for p in pdfs]), ((0, 0), (pad, pad)))
    offsets = np.arange(-pad, pad + 1) * dx
    with np.errstate(over="ignore"):  # an overflowing exponent gives exactly 0
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()  # discrete normalization preserves sum(v)*dx
    grid = (first.grid_min - pad * dx, first.grid_max + pad * dx, first.n_points + 2 * pad)
    return [Pdf(*grid, np.convolve(row, kernel, mode="same")) for row in rows]


def blur_pdf(pdf: Pdf, sigma: float) -> Pdf:
    """Convolve a Pdf with a Gaussian kernel of width sigma (see blur_pdfs)."""
    return blur_pdfs([pdf], sigma)[0]


def blur_pmfs(pmfs, sigma: float) -> list[Pdf]:
    """Pmfs read out with Gaussian noise: mixtures of width-sigma Gaussians
    centered on the integer outcomes, on one grid over lambda in
    [-6 sigma, top + 6 sigma], top being the largest significant outcome of any Pmf."""
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        raise UsePmfDirectly("sigma = 0: keep using the discrete Pmf")
    supports = [p.support for p in pmfs]
    # The grid covers the effective support only, with a step fixed at
    # sigma/16, so padding a Pmf to a larger cutoff keeps its sample points.
    lo = -6.0 * sigma
    top = max(int(s[-1]) for s in supports)
    _check_grid(lo, top + 6.0 * sigma)
    step = sigma / 16.0
    if top + 6.0 * sigma - lo > _MAX_BLUR_POINTS * step:
        raise UnsupportedRangeError(
            f"sigma = {sigma} needs a grid of more than {_MAX_BLUR_POINTS} points"
        )
    n_points = int(math.ceil((top + 6.0 * sigma - lo) / step)) + 1
    hi = lo + (n_points - 1) * step
    xs = np.linspace(lo, hi, n_points)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    if not math.isfinite(norm * norm):  # an overlap multiplies two densities
        raise UnsupportedRangeError(f"sigma = {sigma} gives densities whose products overflow")
    # outside a row's own support its weight is 0, and adding +0.0 changes no bit
    scale = np.zeros((len(pmfs), top + 1))
    for row, pmf, support in zip(scale, pmfs, supports):
        row[support] = pmf.probabilities[support] * norm
    values = np.zeros((len(pmfs), n_points))
    # Each Gaussian is summed within 9 sigma (144 steps) of its outcome only;
    # beyond that it is below e^-40.5 of its peak.
    for n in np.flatnonzero(scale.any(axis=0)):
        centre = round((n - lo) / step)
        window = slice(max(0, centre - 144), centre + 145)
        values[:, window] += scale[:, n, None] * np.exp(-0.5 * ((xs[window] - n) / sigma) ** 2)
    return [Pdf(lo, hi, n_points, v) for v in values]


def blur_pmf(pmf: Pmf, sigma: float) -> Pdf:
    """One Pmf read out with Gaussian noise of width sigma (see blur_pmfs)."""
    return blur_pmfs([pmf], sigma)[0]


@dataclass(frozen=True)
class WignerField:
    """Wigner function sampled on a rectangular phase-space grid."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ps))

    def integral(self) -> float:
        inner = np.trapezoid(self.values, x=self.ps, axis=1)
        return float(np.trapezoid(inner, x=self.xs))

    def marginal_x(self) -> np.ndarray:
        """Integrate out p; equals the phi=0 homodyne PDF on self.xs."""
        return np.trapezoid(self.values, x=self.ps, axis=1)


def _wigner_pure(state: FockVector, xgrid: np.ndarray, pgrid: np.ndarray) -> np.ndarray:
    """W = sum_{m<=n} (2 - delta_mn) Re(c_m c_n^* W_mn), where W_mn, the Wigner
    function of |m><n|, follows the iterative Laguerre recurrence of Johansson,
    Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)."""
    X, P = np.meshgrid(xgrid, pgrid, indexing="ij")
    a = (X + 1j * P) / math.sqrt(2.0)
    c = state.amplitudes
    row = [np.exp(-2.0 * np.abs(a) ** 2) / math.pi]  # row[k] = W_{m, m+k}
    for n in range(1, c.size):
        row.append(2.0 * a * row[-1] / math.sqrt(n))
    w = np.zeros(a.shape)
    for m in range(c.size):
        if m:
            prev, sm = row, math.sqrt(m)
            row = [(2.0 * np.conj(a) * prev[1] - sm * prev[0]) / sm]
            for n in range(m + 1, c.size):
                row.append((2.0 * a * row[-1] - sm * prev[n - m]) / math.sqrt(n))
        weights = c[m] * np.conj(c[m:])
        weights[1:] *= 2.0
        w += sum(wk * wmn for wk, wmn in zip(weights, row)).real
    return w


def wigner(subject, x_range=(-5.0, 5.0), p_range=(-5.0, 5.0), n_points: int = 101) -> WignerField:
    """Wigner function W(x, p), normalized so that its double integral is 1.

    Marginals reproduce the homodyne distributions: integrating out p gives
    the phi=0 quadrature PDF.
    """
    if n_points < 2:
        raise InvalidArgumentError("n_points must be >= 2")
    xs = np.linspace(x_range[0], x_range[1], n_points)
    ps = np.linspace(p_range[0], p_range[1], n_points)
    values = np.zeros((n_points, n_points))
    for weight, state in _components(subject):
        values += weight * _wigner_pure(state, xs, ps)
    field = WignerField(xs, ps, values)
    if abs(field.integral() - 1.0) > 1e-4:
        raise GridCoverageError(
            f"phase-space grid captures {field.integral()} of the Wigner mass"
        )
    return field
