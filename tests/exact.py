"""Exact distinguishabilities of catalog points, for holding printed tables to.

Each value is a closed form, a sum of normal CDFs between polished roots,
or an adaptive quadrature, evaluated with math, numpy and scipy alone:
nothing here integrates an outcome distribution on a fixed grid, so it
shares no code with the package's route from a state to D.

- css homodyne at phi = 0 with blur sigma: the branch rows are the Gaussians
  N(+-sqrt(2) alpha, 1/2 + sigma^2), so D_BC = 1 - exp(-2 alpha^2/(1 + 2 sigma^2))
  and D_KD = erf(sqrt(2) alpha / sqrt(1 + 2 sigma^2)).
- dfs homodyne at phi = 0, sigma = 0: the rows are (1 +- sqrt(2) y)^2 e^{-y^2}
  / (2 sqrt(pi)) at y = x - sqrt(2) alpha, so D_BC = 1 - sqrt(2/pi) e^{-1/2}
  and D_KD = sqrt(2/pi), whatever alpha.
- dfs homodyne at phi = 0 with blur sigma: a blur maps e^{-y^2} {1, y, y^2}
  to e^{-y^2/u} / sqrt(u) {1, y/u, y^2/u^2 + sigma^2/u}, u = 1 + 2 sigma^2, so
  the blurred rows are e^{-y^2/u} / (2 sqrt(pi u)) [(1 +- sqrt(2) y/u)^2
  + 2 sigma^2/u].  Their difference is odd with one root, so D_KD =
  sqrt(2/pi) / sqrt(u); D_BC = 1 - integral sqrt(P Q) by adaptive quadrature.
- psv homodyne at phi = 0, sigma = 0: the branch waves are S (u +- v)/sqrt(2),
  with u, v the normalized cores A^k|0> of k = m, m + 1 and A = cosh r a +
  sinh r a^dag (a dense matrix power).  D does not change when x is
  rescaled, so S drops out: D_KD = integral |u v| and D_BC = 1 - integral
  |u^2 - v^2| / 2 over the core waves, by adaptive quadrature between the
  real roots of u and v, or of u +- v.
- css and psv photon counting, at any sigma: both branches count photons
  with one row, so D_KD = 0.
- dfs photon counting with blur sigma: the rows are p, q = (c +- d)^2 / 2
  with c_n = <n|D(alpha)|0> = e^{-alpha^2/2} alpha^n / sqrt(n!) and
  d_n = <n|D(alpha)|1> = sqrt(n) c_{n-1} - alpha c_n.  The blurred densities
  differ by f(x) = sum_n (p_n - q_n) N(x; n, sigma^2); between two roots of
  f, or beyond the outer ones, the mass of |f| is |sum_n (p_n - q_n)
  [Phi((b - n)/sigma) - Phi((a - n)/sigma)]|, and D_KD is half their sum.
  At sigma = 0, D_KD = sum_n |p_n - q_n| / 2.
- two photon-count rows with blur sigma > 0: D_BC = 1 - integral sqrt(P Q) of
  the blurred densities, whose integrand has no kink, by adaptive quadrature
  (scipy.integrate.quad) on each unit interval between outcomes.
"""

import math

import numpy as np
from numpy.polynomial import hermite
from scipy.integrate import quad
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


def dfs_homodyne(sigma: float) -> tuple[float, float]:
    """(D_BC, D_KD) of dfs at any alpha under homodyne detection at phi = 0
    with blur sigma; D_BC by scipy.integrate.quad on each half line."""
    u = 1.0 + 2.0 * sigma * sigma
    floor = 2.0 * sigma * sigma / u

    def integrand(y):
        gauss = math.exp(-y * y / u) / (2.0 * math.sqrt(math.pi * u))
        plus, minus = (gauss * ((1.0 + s * math.sqrt(2.0) * y / u) ** 2 + floor) for s in (1, -1))
        return math.sqrt(plus * minus)

    reach = 14.0 * math.sqrt(u)
    overlap = math.fsum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                        for a, b in ((-reach, 0.0), (0.0, reach)))
    return 1.0 - overlap, math.sqrt(2.0 / math.pi) / math.sqrt(u)


def psv_cores(r: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The normalized cores A^k|0> of k = m and m + 1 on m + 3 levels, with
    A = cosh r a + sinh r a^dag, by a dense matrix power."""
    a = np.diag(np.sqrt(np.arange(1.0, m + 3)), 1)
    step = math.cosh(r) * a + math.sinh(r) * a.T
    cores = [np.linalg.matrix_power(step, k)[:, 0] for k in (m, m + 1)]
    return tuple(core / np.linalg.norm(core) for core in cores)


def psv_pieces(r: float, m: int) -> list:
    """The integrands |u v| and |u^2 - v^2| / 2 of the psv core waves, each
    with its break points: the real roots of u and v, or of u +- v, within
    [-w, w], w = 12 + sqrt(2 (m + 2)), and w's ends."""
    levels = np.arange(m + 3)
    scale = math.pi ** -0.25 / np.sqrt(2.0 ** levels * np.cumprod(np.append(1.0, levels[1:])))
    u, v = (core * scale for core in psv_cores(r, m))  # Hermite series of the waves
    reach = 12.0 + math.sqrt(2.0 * (m + 2))

    def breaks(*series):
        roots = np.concatenate([hermite.hermroots(c) for c in series])
        real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
        return [-reach, *sorted(x for x in set(real) if -reach < x < reach), reach]

    def waves(y):
        gauss = math.exp(-0.5 * y * y)
        return gauss * hermite.hermval(y, u), gauss * hermite.hermval(y, v)

    def kd(y):
        wu, wv = waves(y)
        return abs(wu * wv)

    def bc(y):
        wu, wv = waves(y)
        return 0.5 * abs(wu * wu - wv * wv)

    return [(kd, breaks(u, v)), (bc, breaks(u + v, u - v))]


def psv_homodyne_sharp(r: float, m: int) -> tuple[float, float]:
    """(D_BC, D_KD) of psv(r, m) under ideal homodyne detection at phi = 0."""
    (kd, kd_breaks), (bc, bc_breaks) = psv_pieces(r, m)

    def integral(f, edges):
        return math.fsum(quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                         for a, b in zip(edges[:-1], edges[1:]))

    return 1.0 - integral(bc, bc_breaks), integral(kd, kd_breaks)


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


def blurred_counts_bc(p: np.ndarray, q: np.ndarray, sigma: float,
                      epsabs: float = 1e-15, epsrel: float = 1e-13) -> float:
    """D_BC of two photon-count rows read out with Gaussian noise of width
    sigma > 0: 1 - integral sqrt(P Q) of the blurred densities P and Q, by
    scipy.integrate.quad over [-14 sigma, n_max + 14 sigma], one piece per
    unit interval between outcomes and one beyond each end."""
    levels = np.arange(p.size)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(x):
        gauss = norm * np.exp(-0.5 * ((x - levels) / sigma) ** 2)
        return math.sqrt((gauss @ p) * (gauss @ q))

    edges = [-14.0 * sigma, *levels, p.size - 1 + 14.0 * sigma]
    pieces = (quad(integrand, a, b, epsabs=epsabs, epsrel=epsrel)[0]
              for a, b in zip(edges[:-1], edges[1:]))
    return 1.0 - math.fsum(pieces)
