"""Exact distinguishabilities of catalog points, for holding printed tables to.

Each value is a closed form evaluated with the math module alone: nothing
here samples an outcome distribution or integrates one, so it shares no code
with the package's route from a state to D.

- css homodyne at phi = 0 with blur sigma: the branch rows are the Gaussians
  N(+-sqrt(2) alpha, 1/2 + sigma^2), so D_BC = 1 - exp(-2 alpha^2/(1 + 2 sigma^2))
  and D_KD = erf(sqrt(2) alpha / sqrt(1 + 2 sigma^2)).
- dfs homodyne at phi = 0, sigma = 0: the rows are (1 +- sqrt(2) y)^2 e^{-y^2}
  / (2 sqrt(pi)) at y = x - sqrt(2) alpha, so D_BC = 1 - sqrt(2/pi) e^{-1/2}
  and D_KD = sqrt(2/pi), whatever alpha.
- css and psv photon counting, at any sigma: both branches count photons
  with one row, so D_KD = 0.
"""

import math


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
