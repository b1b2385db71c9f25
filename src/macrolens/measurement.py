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
# Grid cells per pass of blur_pmfs.  A pass finds its cells' outcome runs
# with six numpy calls, then makes about eight per outcome step, so
# thousands of cells keep their fixed cost small next to the arithmetic;
# a pass's temporaries (a few per distinct row, 64 kB each) stay in cache
# and add little to the peak memory of one table.
_BLUR_BLOCK = 8192
# Steps of the Gaussian recurrence in blur_pmfs between two fresh np.exp
# evaluations.  Each step adds a few ulp of relative error; unchecked, the
# drift reaches 7.6e-13 over the 361-outcome runs of sigma = 20.
_BLUR_REANCHOR = 16
# Levels of a Hermite table held at once (2 MB on 2048 points), whatever the
# cutoff: frame_pdfs and wigner multiply one block of levels at a time.
_HERMITE_BLOCK = 128
# Largest array wigner may allocate: Hermite-block cells on its sampling grid,
# or (x point, y step) pairs of its Fourier integral.
_MAX_WIGNER_CELLS = 2**24


@dataclass(frozen=True)
class DetectorModel:
    """Measurement kind plus Gaussian resolution sigma, and for homodyne
    detection the angle phi, reduced mod 2 pi (a PNRD stores angle 0).

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
        # the quadrature is 2 pi-periodic in phi; the phases e^{-i n phi} need n*phi
        # finite.  A photon counter reads no angle: it stores 0.
        angle = math.fmod(self.angle, 2.0 * math.pi) if self.kind == HOMODYNE else 0.0
        object.__setattr__(self, "angle", angle)
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidArgumentError("sigma must be finite and >= 0")

    @classmethod
    def homodyne(cls, angle: float = 0.0, sigma: float = 0.0) -> "DetectorModel":
        return cls(HOMODYNE, angle=angle, sigma=sigma)

    @classmethod
    def pnrd(cls, sigma: float = 0.0) -> "DetectorModel":
        return cls(PNRD, sigma=sigma)


def row_integrals(values: np.ndarray, grid) -> np.ndarray:
    """The integral of each row of ``values`` over ``grid`` = (grid_min,
    grid_max, n_points): the trapezoid rule, as np.trapezoid with a scalar
    step evaluates it, bit for bit; or each row's sum when grid is None."""
    if grid is None:
        return values.sum(axis=-1)
    dx = (grid[1] - grid[0]) / (grid[2] - 1)
    return (dx * (values[..., 1:] + values[..., :-1]) / 2.0).sum(axis=-1)


def checked_rows(values: np.ndarray, grid) -> np.ndarray:
    """One row, or a table of rows, of outcome distributions with the checks
    of a Pdf sampled on ``grid`` = (grid_min, grid_max, n_points), or of a Pmf
    when grid is None: every value finite and at least -1e-12, and every
    row's mass within tolerance of 1 (else, for densities, GridCoverageError:
    the grid is too narrow or too coarse).  Clips negative values to 0 in
    place and returns the values, made read-only."""
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
    mass = np.ravel(row_integrals(values, grid))
    worst = mass[np.abs(mass - 1.0).argmax()]
    if abs(worst - 1.0) > tol:
        if grid is None:
            raise InvalidArgumentError(f"pmf has mass {worst}, expected 1")
        raise GridCoverageError(f"pdf has mass {worst} on grid [{grid_min}, {grid_max}], not 1")
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
        return float(row_integrals(self.values, self.grid))

    def mean(self) -> float:
        return float(row_integrals(self.xs * self.values, self.grid))

    def variance(self) -> float:
        mu = self.mean()
        return float(row_integrals((self.xs - mu) ** 2 * self.values, self.grid))


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


def _hermite_blocks(xs: np.ndarray, n_max: int):
    """Yield (levels, psi_levels(xs)) for the levels 0..n_max in consecutive
    blocks of at most _HERMITE_BLOCK rows, all from one running recurrence."""
    gauss_log = -0.5 * xs * xs
    prev = np.zeros_like(xs)
    cur = np.full_like(xs, math.pi ** -0.25)
    factor = np.exp(gauss_log)  # changes only when a rescale fires
    rescale = 120.0 * math.log(10.0)
    expo = np.zeros_like(xs)  # log of the factor pulled out of the recurrence
    for start in range(0, n_max + 1, _HERMITE_BLOCK):
        levels = range(start, min(start + _HERMITE_BLOCK, n_max + 1))
        out = np.empty((len(levels), xs.size))
        for row, n in zip(out, levels):
            if n:
                nxt = math.sqrt(2.0 / n) * xs * cur - math.sqrt((n - 1) / n) * prev
                prev, cur = cur, nxt
                while (big := np.abs(cur) > 1e120).any():
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
    out = np.concatenate([psi for _, psi in _hermite_blocks(xs, n_max)])
    return out[:, 0] if scalar else out


def _waves(amplitudes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_n a_kn psi_n(xs) for each row k of an amplitude table: one Hermite
    recurrence and one real matrix product per block of levels, of the real
    rows stacked over the imaginary ones.  A table with no imaginary part
    gives real rows, from its real rows alone; one row is multiplied with a
    zero row under it, since BLAS rounds a one-row product (gemv) otherwise
    than a table (gemm)."""
    b = amplitudes.shape[0]
    real = not amplitudes.imag.any()
    if real:
        coefficients = amplitudes.real if b > 1 else np.pad(amplitudes.real, ((0, 1), (0, 0)))
    else:
        coefficients = np.concatenate([amplitudes.real, amplitudes.imag])
    out = np.zeros((coefficients.shape[0], xs.size))
    for levels, psi in _hermite_blocks(xs, amplitudes.shape[1] - 1):
        out += coefficients[:, levels] @ psi
    return out[:b] if real else out[:b] + 1j * out[b:]


def _density(waves: np.ndarray) -> np.ndarray:
    """|psi|^2 of real or complex wave rows."""
    return waves * waves if waves.dtype.kind == "f" else waves.real**2 + waves.imag**2


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


def _padded_amplitudes(states) -> np.ndarray:
    """The states' amplitudes as rows, zero-padded to the largest cutoff."""
    out = np.zeros((len(states), max(s.cutoff for s in states)), dtype=complex)
    for row, s in zip(out, states):
        row[: s.cutoff] = s.amplitudes
    return out


def default_homodyne_grid(stretch: float, cores, shifts, angle: float,
                          sigma: float = 0.0) -> tuple[float, float, int]:
    """Grid spanning the rotated mean +- 6(sqrt(var)+sigma)+1 of every state
    D(shifts[k]) S(-stretch) cores[k] (see frame_pdfs), read from the cores:
    x_phi = lam x_theta + s_k cos(phi) maps each core's mean and variance."""
    lam, theta = _frame_rotation(stretch, angle)
    stats = [quadrature_stats(core, theta) for core in cores]
    means = [s * math.cos(angle) + lam * m for s, (m, _) in zip(shifts, stats)]
    spread = 6.0 * (lam * math.sqrt(max(v for _, v in stats)) + sigma) + 1.0
    return min(means) - spread, max(means) + spread, DEFAULT_GRID_POINTS


def _frame_rotation(stretch: float, angle: float) -> tuple[float, float]:
    """(lam, theta) with lam e^{i theta} = e^r cos(phi) + i e^{-r} sin(phi)."""
    wide, narrow = math.exp(stretch) * math.cos(angle), math.exp(-stretch) * math.sin(angle)
    return math.hypot(wide, narrow), math.atan2(narrow, wide)


def frame_pdfs(stretch: float, cores, shifts, angle: float, grid) -> np.ndarray:
    """x_phi densities of the states D(shifts[k]) S(-stretch) cores[k] on one
    grid, one row per core, where D(s) moves x by s and S(-r) stretches x by
    e^r.  Their unitary U maps x_phi to lam x_theta + s_k cos(phi), with
    lam e^{i theta} = e^r cos(phi) + i e^{-r} sin(phi), so row k is
    |sum_n c_kn e^{-i n theta} psi_n((x - s_k cos(phi)) / lam)|^2 / lam: one
    Hermite table of the cores' levels over the shifted, shrunk copies of the
    grid.  Each distinct core object is expanded once, over only the copies
    its rows read; cores reading the same copies share one table.  Stretch 0
    and shifts 0 read the cores themselves.  The rows are unchecked:
    checked_rows checks the finished table."""
    _require_rows(cores)
    grid_min, grid_max, n_points = grid
    lam, theta = _frame_rotation(stretch, angle)
    moved = [s * math.cos(angle) for s in shifts]
    _check_grid((grid_min - max(moved)) / lam, (grid_max - min(moved)) / lam)
    copies = {}  # id of a distinct core -> (core, the offsets its rows read)
    for core, offset in zip(cores, moved):
        copies.setdefault(id(core), (core, set()))[1].add(offset)
    tables = {}  # sorted offsets -> the distinct cores reading them
    for core, offsets in copies.values():
        tables.setdefault(tuple(sorted(offsets)), []).append(core)
    rows = {}  # (id of a core, offset) -> density row
    for offsets, group in tables.items():
        xs = [np.linspace((grid_min - o) / lam, (grid_max - o) / lam, n_points) for o in offsets]
        amplitudes = _padded_amplitudes(group)
        rotated = np.exp(-1j * np.arange(amplitudes.shape[1]) * theta) * amplitudes
        waves = _waves(rotated, xs[0] if len(xs) == 1 else np.concatenate(xs))
        density = _density(waves).reshape(len(group), len(offsets), n_points)
        for core, row in zip(group, density):
            rows.update(((id(core), o), r) for o, r in zip(offsets, row))
    return np.array([rows[id(core), o] for core, o in zip(cores, moved)]) / lam


def homodyne_pdf(subject, angle: float = 0.0, grid=None) -> Pdf:
    """Quadrature outcome distribution P(x) at the given homodyne angle.

    For a pure state P(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2; for an
    ensemble the weighted average of the component distributions.
    """
    weights, states = zip(*_components(subject))
    frame = (0.0, states, (0.0,) * len(states))  # the identity frame
    if grid is None:
        grid = default_homodyne_grid(*frame, angle)
    rows = frame_pdfs(*frame, angle, grid)
    return Pdf(*grid, sum(w * row for w, row in zip(weights, rows)))


def pnrd_pmfs(states) -> np.ndarray:
    """Photon-count probabilities P(n) = |c_n|^2 of pure states, one row per
    state, padded to one cutoff."""
    _require_rows(states)
    return np.abs(_padded_amplitudes(states)) ** 2


def pnrd_pmf(subject) -> Pmf:
    """Photon-count distribution P(n) = |c_n|^2 (weight-averaged for mixtures)."""
    weights, states = zip(*_components(subject))
    return Pmf(sum(w * row for w, row in zip(weights, pnrd_pmfs(states))))


def blur_pdfs(rows: np.ndarray, grid, sigma: float) -> tuple[np.ndarray, tuple]:
    """Density rows on one grid convolved with one Gaussian kernel of width
    sigma, and the grid extended by 6 sigma on both sides so no mass leaves it."""
    _require_rows(rows)
    if np.ndim(rows) != 2 or np.shape(rows)[1] != grid[2]:
        raise InvalidArgumentError("blur_pdfs needs one row of n_points values per density")
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        return rows, grid
    kernel, wide = _blur_kernel(grid, sigma)
    # direct sums keep every value's relative accuracy, far tails included
    return np.stack([np.convolve(row, kernel, mode="full") for row in rows]), wide


def blur_differences(rows: np.ndarray, grid, sigma: float) -> tuple[np.ndarray, tuple]:
    """Signed rows on one grid, such as differences of densities, blurred as
    blur_pdfs blurs densities (sigma > 0), by one FFT product.  Each value is
    off by roundoff of the row's largest value, about 1e-17 for densities of
    order 1: harmless in integral |P - Q|, but a square root of a far tail,
    as in sqrt(P Q), would amplify it."""
    kernel, wide = _blur_kernel(grid, sigma)
    n_full = wide[2]
    size = 1 << (n_full - 1).bit_length()  # at least the full length, so nothing wraps
    spectrum = np.fft.rfft(rows, size, axis=1) * np.fft.rfft(kernel, size)
    return np.fft.irfft(spectrum, size, axis=1)[:, :n_full], wide


def _blur_kernel(grid, sigma: float) -> tuple[np.ndarray, tuple]:
    """The width-sigma Gaussian on the grid step out to 6 sigma, normalized
    to sum 1, and the grid extended by its pad cells on both sides: the span
    of a row's full convolution with it."""
    grid_min, grid_max, n_points = grid
    _check_grid(grid_min - 6.0 * sigma, grid_max + 6.0 * sigma)
    dx = (grid_max - grid_min) / (n_points - 1)
    pad = math.ceil(6.0 * sigma / dx)
    offsets = np.arange(-pad, pad + 1) * dx
    with np.errstate(over="ignore"):  # an overflowing exponent gives exactly 0
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()  # discrete normalization preserves sum(v)*dx
    return kernel, (grid_min - pad * dx, grid_max + pad * dx, n_points + 2 * pad)


def blur_pdf(pdf: Pdf, sigma: float) -> Pdf:
    """Convolve a Pdf with a Gaussian kernel of width sigma (see blur_pdfs)."""
    rows, grid = blur_pdfs(pdf.values[None], pdf.grid, sigma)
    return Pdf(*grid, rows[0]) if sigma > 0.0 else pdf


def blur_pmfs(rows: np.ndarray, sigma: float) -> tuple[np.ndarray, tuple]:
    """Photon-count rows read out with Gaussian noise: mixtures of width-sigma
    Gaussians centered on the integer outcomes, as density rows on one grid
    over the photon number in [-6 sigma, top + 6 sigma], top being the
    largest significant outcome of any row; returns (rows, grid).  Each
    distinct row is summed once; a row equal to an earlier one, bit for bit,
    gets a copy of that row's sums."""
    _require_rows(rows)
    if sigma < 0.0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if sigma == 0.0:
        raise UsePmfDirectly("sigma = 0: keep using the discrete Pmf")
    # css and psv branches share their counts, so a table is often one row
    # twice.  Only exact equality merges rows: twins blur to the same bits.
    keys = {}
    twin = [keys.setdefault(row.tobytes(), len(keys)) for row in rows]
    rows = rows[[twin.index(k) for k in range(len(keys))]]
    # a row's support: the outcomes above 1e-16 of its largest probability
    supports = [np.nonzero(row > row.max() * 1e-16)[0] for row in rows]
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
    # n.  The sum walks blocks of cells.  A block counts its outcomes per
    # cell, from 144 cells before its first to 144 after its last; the
    # running count `below` then gives each cell's run: first = centres
    # below j - 144, stop = centres at or below j + 144.  Pass k adds each
    # cell's k-th outcome, so every cell adds its terms in ascending-n order
    # from 0.  A cell whose run is shorter adds column top + 1 of `weights`,
    # which is 0.
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
        edge, size = start - 144, x.size
        a, b = np.searchsorted(centres, [edge, start + size + 144])
        counts = np.bincount(centres[a:b] - edge, minlength=size + 289)
        below = a + np.concatenate(([0], np.cumsum(counts)))
        first, stop = below[:size], below[289:289 + size]
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
    return values[twin], (lo, hi, n_points)


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
        return float(row_integrals(self.marginal_x(), (self.xs[0], self.xs[-1], self.xs.size)))

    def marginal_x(self) -> np.ndarray:
        """Integrate out p; equals the phi=0 homodyne PDF on self.xs."""
        return row_integrals(self.values, (self.ps[0], self.ps[-1], self.ps.size))


def _wigner_table(components, xs: np.ndarray, ps: np.ndarray) -> tuple:
    """W(x, p) = (1/pi) sum_k w_k int psi_k^*(x + y) psi_k(x - y) e^{2ipy} dy on
    xs × ps (Leonhardt, Measuring the Quantum State of Light (1997), ch. 3), by
    the trapezoid rule over y >= 0: the integrand at -y is the conjugate of the
    one at y.  With K the largest cutoff, every psi_k vanishes beyond
    reach = sqrt(2K + 1) + 8 and the integrand's frequencies stay below
    2(reach - 8 + max|p|), so a y step h <= pi / (reach + max|p|) aliases none
    of them.  h is a whole number of steps of a grid u that divides the x step,
    so every x_i +- y_j lies on u and one Hermite table on u gives every psi_k.

    Returns W and the masses of its x and p marginals within the window.  The
    x marginal sum_k w_k |psi_k|^2 is read on u; the p marginal on a p grid of
    step at most h, from the momentum waves sum_n c_kn (-i)^n psi_n(p) of a
    second Hermite table, on that grid.  Either step resolves the marginal's
    frequencies, below 2(reach - 8), so each trapezoid sum is accurate however
    coarse the grid of W is.  Real amplitudes give real x waves, so W's
    products are real.
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
    n_p = math.ceil((ps[-1] - ps[0]) / h_max) + 1
    if max(min(cutoff, _HERMITE_BLOCK) * (n_u + n_p), xs.size * n_y) > _MAX_WIGNER_CELLS:
        raise UnsupportedRangeError(
            f"this phase-space grid needs more than {_MAX_WIGNER_CELLS} cells"
            f" ({n_u + n_p} sample points, {n_y} y steps)"
        )
    step = dx / refine
    amplitudes = _padded_amplitudes(states)
    turned = amplitudes * np.array([1.0, -1j, -1.0, 1j])[np.arange(cutoff) % 4]
    p_fine = np.linspace(ps[0], ps[-1], n_p)
    waves = _waves(amplitudes, xs[0] + step * np.arange(-margin, n_u - margin))
    n_window = refine * (xs.size - 1) + 1
    x_density = _density(waves[:, margin:margin + n_window])
    x_mass = np.dot(weights, row_integrals(x_density, (xs[0], xs[-1], n_window)))
    p_mass = np.dot(weights, row_integrals(_density(_waves(turned, p_fine)), (ps[0], ps[-1], n_p)))
    centre = margin + refine * np.arange(xs.size)[:, None]
    offset = stride * np.arange(n_y)
    products = sum(
        w * np.conj(psi[centre + offset]) * psi[centre - offset] for w, psi in zip(weights, waves)
    )
    products[:, 1:] *= 2.0
    h = stride * step
    table = (h / math.pi) * (products @ np.exp(2j * h * np.outer(np.arange(n_y), ps))).real
    return table, (float(x_mass), float(p_mass))


def wigner(subject, x_range=(-5.0, 5.0), p_range=(-5.0, 5.0), n_points: int = 101) -> WignerField:
    """Wigner function W(x, p), normalized so that its double integral is 1.

    Marginals reproduce the homodyne distributions: integrating out p gives
    the phi=0 quadrature PDF.  W is evaluated as a Fourier integral from one
    Hermite table and one matrix product (see _wigner_table).  Each range must
    be finite with lo < hi; a grid needing more than 2**24 cells raises
    UnsupportedRangeError.  A window whose x or p range misses more than 1e-4
    of that marginal's mass raises GridCoverageError; a coarse grid over a
    window that holds the state does not, as each W(x, p) is exact at its
    point.
    """
    if n_points < 2:
        raise InvalidArgumentError("n_points must be >= 2")
    for name, (lo, hi) in (("x_range", x_range), ("p_range", p_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidArgumentError(f"{name} must be finite with lo < hi, got ({lo}, {hi})")
        _check_grid(lo, hi)
    xs = np.linspace(x_range[0], x_range[1], n_points)
    ps = np.linspace(p_range[0], p_range[1], n_points)
    table, (x_mass, p_mass) = _wigner_table(_components(subject), xs, ps)
    if max(abs(x_mass - 1.0), abs(p_mass - 1.0)) > 1e-4:
        raise GridCoverageError(
            f"phase-space window captures {x_mass} of the x marginal's mass"
            f" and {p_mass} of the p marginal's, not 1"
        )
    return WignerField(xs, ps, table)
