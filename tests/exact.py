"""Exact distinguishabilities of catalog points, for holding printed tables to.

Each value is a closed form, or a sum of normal CDFs between polished
roots, evaluated with math, numpy and scipy alone: nothing here integrates
an outcome distribution on a grid, so it shares no code with the package's
route from a state to D.

- css homodyne at phi = 0 with blur sigma: the branch rows are the Gaussians
  N(+-sqrt(2) alpha, 1/2 + sigma^2), so D_BC = 1 - exp(-2 alpha^2/(1 + 2 sigma^2))
  and D_KD = erf(sqrt(2) alpha / sqrt(1 + 2 sigma^2)).
- dfs homodyne at phi = 0, sigma = 0: the rows are (1 +- sqrt(2) y)^2 e^{-y^2}
  / (2 sqrt(pi)) at y = x - sqrt(2) alpha, so D_BC = 1 - sqrt(2/pi) e^{-1/2}
  and D_KD = sqrt(2/pi), whatever alpha.
- css and psv photon counting, at any sigma: both branches count photons
  with one row, so D_KD = 0.
- dfs photon counting with blur sigma: the rows are p, q = (c +- d)^2 / 2
  with c_n = <n|D(alpha)|0> = e^{-alpha^2/2} alpha^n / sqrt(n!) and
  d_n = <n|D(alpha)|1> = sqrt(n) c_{n-1} - alpha c_n.  The blurred densities
  differ by f(x) = sum_n (p_n - q_n) N(x; n, sigma^2); between two roots of
  f, or beyond the outer ones, the mass of |f| is |sum_n (p_n - q_n)
  [Phi((b - n)/sigma) - Phi((a - n)/sigma)]|, and D_KD is half their sum.
  At sigma = 0, D_KD = sum_n |p_n - q_n| / 2.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr


def css_homodyne(alpha: float, sigma: float = 0.0) -> tuple[float, float]:
    """(D_BC, D_KD) of css at ``alpha`` under homodyne detection at phi = 0."""
    spread = 1.0 + 2.0 * sigma * sigma
    return (1.0 - math.exp(-2.0 * alpha * alpha / spread),
            math.erf(math.sqrt(2.0) * alpha / math.sqrt(spread)))


def dfs_homodyne_sharp() -> tuple[float, float]:
    """(D_BC, D_KD) of dfs at any alpha under ideal homodyne detection at phi = 0."""
    root = math.sqrt(2.0 / math.pi)
    return 1.0 - root * math.exp(-0.5), root


# D_KD of photon counting at any sigma, for the families whose branches
# share their photon-count row
SHARED_COUNTS_KD = {"css": 0.0, "psv": 0.0}


def dfs_count_rows(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The photon-count rows p, q of the dfs branches at ``alpha``, on enough
    levels that the rest of either row lies below 1e-20."""
    size = int(alpha * alpha + 12.0 * alpha + 30.0)
    c = np.array([math.exp(-0.5 * alpha * alpha - 0.5 * math.lgamma(n + 1.0)) * alpha**n
                  for n in range(size)])
    d = np.sqrt(np.arange(size)) * np.append(0.0, c[:-1]) - alpha * c
    return (c + d) ** 2 / 2.0, (c - d) ** 2 / 2.0


def blurred_counts_kd(p: np.ndarray, q: np.ndarray, sigma: float,
                      scan_step: float | None = None) -> float:
    """D_KD of two photon-count rows read out with Gaussian noise of width
    sigma: the roots of f, bracketed on a scan of step sigma / 64 (or
    ``scan_step``) over [-14 sigma, n_max + 14 sigma] and polished with
    brentq, bound the pieces, and each piece's mass is a sum of normal
    CDFs."""
    diff = p - q
    if sigma == 0.0:
        return 0.5 * float(np.abs(diff).sum())
    levels = np.arange(diff.size)

    def f(x):
        return np.exp(-0.5 * ((np.asarray(x)[..., None] - levels) / sigma) ** 2) @ diff

    step = scan_step or sigma / 64.0
    xs = np.arange(-14.0 * sigma, diff.size - 1 + 14.0 * sigma, step)
    values = f(xs)
    brackets = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    roots = [brentq(f, xs[i], xs[i + 1], xtol=1e-15) for i in brackets]
    cdf = ndtr((np.array([-np.inf, *roots, np.inf])[:, None] - levels) / sigma) @ diff
    return 0.5 * float(np.abs(np.diff(cdf)).sum())


def dfs_counts_kd(alpha: float, sigma: float) -> float:
    """D_KD of dfs at ``alpha`` under photon counting with blur sigma."""
    return blurred_counts_kd(*dfs_count_rows(alpha), sigma)
