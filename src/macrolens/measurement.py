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
# Grid cells per pass of blur_pmfs.  A pass makes about ten numpy calls, so
# thousands of cells keep their fixed cost small next to the arithmetic;
# a pass's temporaries (a few per branch, 64 kB each) stay in cache and
# add little to the peak memory of one table.
_BLUR_BLOCK = 8192
# Steps of the Gaussian recurrence in blur_pmfs between two fresh np.exp
# evaluations.  Each step adds a few ulp of relative error; unchecked, the
# drift reaches 7.6e-13 over the 361-outcome runs of sigma = 20.
_BLUR_REANCHOR = 16
# Levels of a Hermite table held at once (2 MB on 2048 points), whatever the
# cutoff: homodyne_pdfs and wigner multiply one block of levels at a time.
_HERMITE_BLOCK = 128
# |x| below which the Hermite recurrence never needs rescaling: it carries
# psi_n(x) e^{x^2/2}, and Cramer's bound |psi_n| <= 0.816 keeps that below
# 1e120 there
_UNSCALED_REACH = 23.5
# Largest array wigner may allocate: Hermite-block cells on its sampling grid,
# or (x point, y step) pairs of its Fourier integral.
_MAX_WIGNER_CELLS = 2**24


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


def checked_rows(values: np.ndarray, grid) -> np.ndarray:
    """One row, or a table of rows, of outcome distributions with the checks
    of a Pdf sampled on ``grid`` = (grid_min, grid_max, n_points), or of a Pmf
    when grid is None: every value finite and at least -1e-12, and every
    row's mass within tolerance of 1.  Clips negative values to 0 in place
    and returns the values, made read-only."""
    if grid is None:
        kind, tol = "pmf", 1e-8
    else:
        kind, tol = "pdf", _MASS_TOL
        grid_min, grid_max, n_points = grid
        if n_points < 64:
            raise InvalidArgumentError("a Pdf needs at least 64 grid points")
        if not (math.isfinite(grid_min) and math.isfinite(grid_max)):
            raise InvalidArgumentError("grid bounds must be finite")
        if grid_max <= grid_min:
            raise InvalidArgumentError("grid_max must exceed grid_min")
        if values.shape[-1] != n_points:
            raise InvalidArgumentError("values length must equal n_points")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{kind} has a non-finite value")
    lowest = values.min()
    if lowest < -1e-12:
        raise InvalidArgumentError(f"{kind} has a negative value {lowest} below the noise floor")
    np.clip(values, 0.0, None, out=values)
    if grid is None:
        mass = np.ravel(values.sum(axis=-1))
    else:
        mass = np.ravel(np.trapezoid(values, dx=(grid_max - grid_min) / (n_points - 1), axis=-1))
    worst = mass[np.abs(mass - 1.0).argmax()]
    if abs(worst - 1.0) > tol:
        raise InvalidArgumentError(f"{kind} has mass {worst}, expected 1")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Pdf:
    """Probability density sampled on a uniform grid."""

    grid_min: float
    grid_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvalidArgumentError("pdf values must be a 1-D sequence")
        object.__setattr__(self, "values", checked_rows(vals, self.grid))

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.n_points)

    @property
    def grid(self) -> tuple[float, float, int]:
        return self.grid_min, self.grid_max, self.n_points

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
        return self.grid == other.grid


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over photon counts 0..cutoff-1."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidArgumentError("probabilities must be a non-empty 1-D sequence")
        object.__setattr__(self, "probabilities", checked_rows(probs, None))

    @property
    def cutoff(self) -> int:
        return self.probabilities.size

    @property
    def support(self) -> np.ndarray:
        return _support(self.probabilities)


def _support(probabilities: np.ndarray) -> np.ndarray:
    """Outcomes above 1e-16 of the largest probability."""
    return np.nonzero(probabilities > probabilities.max() * 1e-16)[0]


def _hermite_blocks(xs: np.ndarray, n_max: int, size: int = _HERMITE_BLOCK):
    """Yield (levels, psi_levels(xs)) for the levels 0..n_max in consecutive
    blocks of at most `size` rows, all from one running recurrence."""
    gauss_log = -0.5 * xs * xs
    prev = np.zeros_like(xs)
    cur = np.full_like(xs, math.pi ** -0.25)
    expo = np.zeros_like(xs)  # log of the factor pulled out of the recurrence
    factor = np.exp(expo + gauss_log)  # changes only when expo does
    rescale = 120.0 * math.log(10.0)
    scan = np.abs(xs).max(initial=0.0) >= _UNSCALED_REACH  # else no rescale can fire
    for start in range(0, n_max + 1, size):
        levels = range(start, min(start + size, n_max + 1))
        out = np.empty((len(levels), xs.size))
        for row, n in zip(out, levels):
            if n:
                nxt = math.sqrt(2.0 / n) * xs * cur - math.sqrt((n - 1) / n) * prev
                prev, cur = cur, nxt
                while scan and (big := np.abs(cur) > 1e120).any():
                    prev[big] *= 1e-120
                    cur[big] *= 1e-120
                    expo[big] += rescale
                    factor = np.exp(expo + gauss_log)
            row[:] = cur * factor
        yield slice(levels.start, levels.stop), out


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
    ((_, out),) = _hermite_blocks(xs, n_max, n_max + 1)
    return out[:, 0] if scalar else out


def _hermite_product(coefficients: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """coefficients @ hermite_functions(xs, K - 1) for real coefficients of
    shape (rows, K), summed one block of levels at a time."""
    out = np.zeros((coefficients.shape[0], xs.size))
    for levels, psi in _hermite_blocks(xs, coefficients.shape[1] - 1):
        out += coefficients[:, levels] @ psi
    return out


def _check_grid(lo: float, hi: float) -> None:
    """Refuse a grid on which x^2 overflows (|x| beyond about 1.3e154)."""
    if not all(math.isfinite(float(x) * float(x)) for x in (lo, hi)):
        raise UnsupportedRangeError(f"grid [{lo}, {hi}] is too wide: x^2 overflows on it")


def _require_rows(rows) -> None:
    if len(rows) == 0:
        raise InvalidArgumentError("need at least one state or distribution")


def _components(subject) -> list[tuple[float, FockVector]]:
    if isinstance(subject, FockVector):
        return [(1.0, subject)]
    if isinstance(subject, Ensemble):
        return list(subject.components)
    raise InvalidArgumentError("subject must be a FockVector or Ensemble")


def _padded_amplitudes(states, cutoff: int) -> np.ndarray:
    out = np.zeros((len(states), cutoff), dtype=complex)
    for row, s in zip(out, states):
        row[: s.cutoff] = s.amplitudes
    return out


def default_homodyne_grid(states, angle: float, sigma: float = 0.0) -> tuple[float, float, int]:
    """Grid spanning every state's rotated mean +- 6(sqrt(var)+sigma)+1."""
    stats = [quadrature_stats(s, angle) for s in states]
    means = [m for m, _ in stats]
    spread = 6.0 * (math.sqrt(max(v for _, v in stats)) + sigma) + 1.0
    return min(means) - spread, max(means) + spread, DEFAULT_GRID_POINTS


def _densities(amplitudes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """|sum_n a_kn psi_n(x)|^2 for each row k of the amplitudes at the points
    xs: one Hermite recurrence and one real matrix product (per block of
    levels) of the real and imaginary rows of the amplitudes."""
    b = amplitudes.shape[0]
    waves = _hermite_product(np.concatenate([amplitudes.real, amplitudes.imag]), xs)
    return waves[:b] ** 2 + waves[b:] ** 2


def _covering(values: np.ndarray, grid) -> np.ndarray:
    """The density rows, or GridCoverageError if a row misses mass on the grid."""
    grid_min, grid_max, n_points = grid
    mass = np.trapezoid(values, dx=(grid_max - grid_min) / (n_points - 1), axis=1).min()
    if mass < 1.0 - _MASS_TOL:
        raise GridCoverageError(
            f"grid [{grid_min}, {grid_max}] captures only {mass} of the state"
        )
    return values


def homodyne_pdfs(states, angle: float, grid) -> np.ndarray:
    """Quadrature densities |sum_n c_n e^{-i n phi} psi_n(x)|^2 of pure states
    on one grid, one row per state, from the rotated, zero-padded amplitudes."""
    _require_rows(states)
    _check_grid(grid[0], grid[1])
    cutoff = max(s.cutoff for s in states)
    phase = np.exp(-1j * np.arange(cutoff) * angle)
    rotated = phase * _padded_amplitudes(states, cutoff)
    return _covering(_densities(rotated, np.linspace(*grid)), grid)


def frame_pdfs(stretch: float, cores, shifts, grid) -> np.ndarray:
    """x densities of the states D(shifts[k]) S(-stretch) cores[k] on one grid,
    one row per core, where D(s) moves x by s and S(-r) stretches it by e^r:
    psi_k(x) = e^{-r/2} chi_k((x - s_k) e^{-r}).  So the Hermite recurrence
    needs only the cores' levels, over the shifted, shrunk copies of the grid."""
    _require_rows(cores)
    grid_min, grid_max, n_points = grid
    _check_grid(grid_min, grid_max)
    shrink = math.exp(-stretch)
    xs = np.stack([
        np.linspace((grid_min - s) * shrink, (grid_max - s) * shrink, n_points) for s in shifts
    ])
    amplitudes = _padded_amplitudes(cores, max(c.cutoff for c in cores))
    # one table over every copy; core k meets only its own copy's columns
    psi = hermite_functions(xs.ravel(), amplitudes.shape[1] - 1).reshape(-1, len(cores), n_points)
    rows = np.empty((len(cores), n_points))
    for k, core in enumerate(amplitudes):
        real, imag = np.stack([core.real, core.imag]) @ psi[:, k]
        rows[k] = real**2 + imag**2
    return _covering(rows * shrink, grid)


def homodyne_pdf(subject, angle: float = 0.0, grid=None) -> Pdf:
    """Quadrature outcome distribution P(x) at the given homodyne angle.

    For a pure state P(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2; for an
    ensemble the weighted average of the component distributions.
    """
    weights, states = zip(*_components(subject))
    if grid is None:
        grid = default_homodyne_grid(states, angle)
    rows = homodyne_pdfs(states, angle, grid)
    return Pdf(*grid, sum(w * row for w, row in zip(weights, rows)))


def pnrd_pmfs(states) -> np.ndarray:
    """Photon-count probabilities P(n) = |c_n|^2 of pure states, one row per
    state, padded to one cutoff."""
    _require_rows(states)
    return np.abs(_padded_amplitudes(states, max(s.cutoff for s in states))) ** 2


def pnrd_pmf(subject) -> Pmf:
    """Photon-count distribution P(n) = |c_n|^2 (weight-averaged for mixtures)."""
    weights, states = zip(*_components(subject))
    return Pmf(sum(w * row for w, row in zip(weights, pnrd_pmfs(states))))


def blur_pdfs(rows: np.ndarray, grid, sigma: float) -> tuple[np.ndarray, tuple]:
    """Density rows on one grid convolved with one Gaussian kernel of width
    sigma, and the grid extended by 6 sigma on both sides so no mass leaves it."""
    _require_rows(rows)
    grid_min, grid_max, n_points = grid
    if np.ndim(rows) != 2 or np.shape(rows)[1] != n_points:
        raise InvalidArgumentError("blur_pdfs needs one row of n_points values per density")
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        return rows, grid
    _check_grid(grid_min - 6.0 * sigma, grid_max + 6.0 * sigma)
    dx = (grid_max - grid_min) / (n_points - 1)
    pad = math.ceil(6.0 * sigma / dx)
    offsets = np.arange(-pad, pad + 1) * dx
    with np.errstate(over="ignore"):  # an overflowing exponent gives exactly 0
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()  # discrete normalization preserves sum(v)*dx
    # the full convolution of a row spans exactly the grid extended by pad cells
    blurred = np.stack([np.convolve(row, kernel, mode="full") for row in rows])
    return blurred, (grid_min - pad * dx, grid_max + pad * dx, n_points + 2 * pad)


def blur_pdf(pdf: Pdf, sigma: float) -> Pdf:
    """Convolve a Pdf with a Gaussian kernel of width sigma (see blur_pdfs)."""
    rows, grid = blur_pdfs(pdf.values[None], pdf.grid, sigma)
    return Pdf(*grid, rows[0]) if sigma > 0.0 else pdf


def blur_pmfs(rows: np.ndarray, sigma: float) -> tuple[np.ndarray, tuple]:
    """Photon-count rows read out with Gaussian noise: mixtures of width-sigma
    Gaussians centered on the integer outcomes, as density rows on one grid
    over lambda in [-6 sigma, top + 6 sigma], top being the largest
    significant outcome of any row; returns (rows, grid)."""
    _require_rows(rows)
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        raise UsePmfDirectly("sigma = 0: keep using the discrete Pmf")
    supports = [_support(row) for row in rows]
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
    # Every integer 0..top is an outcome, with weight 0 off a row's support;
    # adding +0.0 changes no bit.
    weights = np.zeros((len(rows), top + 2))
    for weight, row, support in zip(weights, rows, supports):
        weight[support] = row[support] * norm
    values = np.zeros((len(rows), n_points))
    # Each Gaussian is summed within 9 sigma (144 steps) of its outcome only;
    # beyond that it is below e^-40.5 of its peak.  So cell j takes the
    # outcomes whose centres lie in [j - 144, j + 144], a run of consecutive
    # n.  The sum walks blocks of cells; pass k adds each cell's k-th
    # outcome, so every cell adds its terms in ascending-n order from 0.  A
    # cell whose run is shorter adds column top + 1 of `weights`, which is 0.
    # Along a run the Gaussian g_n = G(x - n) needs no exp: with
    # r_n = exp((x - n - 1/2)/sigma^2), g_{n+1} = g_n r_n and
    # r_{n+1} = r_n exp(-1/sigma^2) (fast Gaussian gridding, Greengard & Lee,
    # SIAM Rev. 46, 443 (2004)).  r is at most about e^41 within a cell's
    # window and only shrinks past its end, so neither g nor r overflows.
    centres = np.rint((np.arange(top + 1) - lo) / step).astype(np.intp)
    decay = math.exp(-1.0 / sigma**2)
    for start in range(0, n_points, _BLUR_BLOCK):
        cells = slice(start, start + _BLUR_BLOCK)
        x, block = xs[cells], values[:, cells]
        j = np.arange(start, start + x.size)
        first = np.searchsorted(centres, j - 144, side="left")
        stop = np.searchsorted(centres, j + 144, side="right")
        for k in range(int((stop - first).max())):
            index = first + k
            if k % _BLUR_REANCHOR == 0:
                n = index.astype(float)
                gauss = np.exp(-0.5 * ((x - n) / sigma) ** 2)
                ratio = np.exp((x - n - 0.5) / sigma**2)
            else:
                gauss *= ratio
                ratio *= decay
            index[index >= stop] = top + 1
            block += weights.take(index, axis=1) * gauss
    return values, (lo, hi, n_points)


def blur_pmf(pmf: Pmf, sigma: float) -> Pdf:
    """One Pmf read out with Gaussian noise of width sigma (see blur_pmfs)."""
    rows, grid = blur_pmfs(pmf.probabilities[None], sigma)
    return Pdf(*grid, rows[0])


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


def _wigner_table(components, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W(x, p) = (1/pi) sum_k w_k int psi_k^*(x + y) psi_k(x - y) e^{2ipy} dy on
    xs × ps (Leonhardt, Measuring the Quantum State of Light (1997), ch. 3), by
    the trapezoid rule over y >= 0: the integrand at -y is the conjugate of the
    one at y.  With K the largest cutoff, every psi_k vanishes beyond
    reach = sqrt(2K + 1) + 8 and the integrand's frequencies stay below
    2(reach - 8 + max|p|), so a y step h <= pi / (reach + max|p|) aliases none
    of them.  h is a whole number of steps of a grid u that divides the x step,
    so every x_i +- y_j lies on u and one Hermite table on u gives every psi_k.
    """
    weights, states = zip(*components)
    cutoff = max(s.cutoff for s in states)
    reach = math.sqrt(2 * cutoff + 1) + 8.0
    h_max = math.pi / (reach + float(np.abs(ps).max()))
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    refine = math.ceil(dx / h_max)  # u steps per x step
    stride = max(1, math.floor(h_max * refine / dx))  # u steps per y step
    n_y = math.ceil(reach * refine / (stride * dx)) + 1
    margin = (n_y - 1) * stride
    n_u = (xs.size - 1) * refine + 2 * margin + 1
    if max(min(cutoff, _HERMITE_BLOCK) * n_u, xs.size * n_y) > _MAX_WIGNER_CELLS:
        raise UnsupportedRangeError(
            f"this phase-space grid needs more than {_MAX_WIGNER_CELLS} cells"
            f" ({n_u} sample points, {n_y} y steps)"
        )
    step = dx / refine
    amplitudes = _padded_amplitudes(states, cutoff)
    waves = _hermite_product(
        np.concatenate([amplitudes.real, amplitudes.imag]),
        xs[0] + step * np.arange(-margin, n_u - margin),
    )
    waves = waves[: len(states)] + 1j * waves[len(states) :]
    centre = margin + refine * np.arange(xs.size)[:, None]
    offset = stride * np.arange(n_y)
    products = sum(
        w * np.conj(psi[centre + offset]) * psi[centre - offset] for w, psi in zip(weights, waves)
    )
    products[:, 1:] *= 2.0
    h = stride * step
    return (h / math.pi) * (products @ np.exp(2j * h * np.outer(np.arange(n_y), ps))).real


def wigner(subject, x_range=(-5.0, 5.0), p_range=(-5.0, 5.0), n_points: int = 101) -> WignerField:
    """Wigner function W(x, p), normalized so that its double integral is 1.

    Marginals reproduce the homodyne distributions: integrating out p gives
    the phi=0 quadrature PDF.  W is evaluated as a Fourier integral from one
    Hermite table and one matrix product (see _wigner_table).  Each range must
    be finite with lo < hi; a grid needing more than 2**24 cells raises
    UnsupportedRangeError.
    """
    if n_points < 2:
        raise InvalidArgumentError("n_points must be >= 2")
    for name, (lo, hi) in (("x_range", x_range), ("p_range", p_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidArgumentError(f"{name} must be finite with lo < hi, got ({lo}, {hi})")
        _check_grid(lo, hi)
    xs = np.linspace(x_range[0], x_range[1], n_points)
    ps = np.linspace(p_range[0], p_range[1], n_points)
    field = WignerField(xs, ps, _wigner_table(_components(subject), xs, ps))
    if abs(field.integral() - 1.0) > 1e-4:
        raise GridCoverageError(
            f"phase-space grid captures {field.integral()} of the Wigner mass"
        )
    return field
