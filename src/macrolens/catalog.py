"""The three two-branch state families studied by the package.

Each family provides branches |b1>, |b2> with equal coefficients 1/sqrt(2)
together with the superpositions psi_pm proportional to |b1> +- |b2>:

* css: coherent branches |alpha> and |-alpha> (even/odd cat superpositions)
* psv: sums/differences of m- and (m+1)-photon-subtracted squeezed vacuum
* dfs: displaced (|0> +- |1>)/sqrt(2) branches
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# d_kd is unused here but the perfbench/spans.py tracer still wraps catalog.d_kd
from .distinguishability import BranchSet, d_kd
from .errors import InvalidArgumentError, UnsupportedRangeError
# squeezed_vacuum and subtract_photons, like d_kd, are unused here but
# wrapped by that tracer
from .fock import (
    FockVector,
    _squeezed_states,
    coherent_state,
    displace,
    fock_state,
    pad_to_cutoff,
    squeezed_vacuum,
    subtract_photons,
    superpose,
)

@dataclass(frozen=True)
class TwoBranchState:
    """A B=2 branch set with its derived superpositions psi_pm."""

    branch_set: BranchSet
    psi_plus: FockVector
    psi_minus: FockVector
    family: str
    params: dict


def _two_branch(b1: FockVector, b2: FockVector, family: str,
                params: dict, frame=None) -> TwoBranchState:
    coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return TwoBranchState(
        branch_set=BranchSet(coeffs, (b1, b2), frame),
        psi_plus=superpose(b1, b2, +1),
        psi_minus=superpose(b1, b2, -1),
        family=family,
        params=params,
    )


def css(alpha: float, tail_tolerance: float | None = None) -> TwoBranchState:
    """Coherent state superposition: branches |alpha> and |-alpha>.

    |+-alpha> = D(+-alpha)|0> is the vacuum moved to x = +-sqrt(2) alpha, so
    the branch set carries the frame ((|0>, |0>) at those shifts), from
    which homodyne detection at phi = 0 is exact.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 4.0):
        raise UnsupportedRangeError(f"css requires 0 < alpha <= 4, got {alpha}")
    b1 = coherent_state(alpha, tail_tolerance)
    b2 = coherent_state(-alpha, tail_tolerance)
    vac, shift = fock_state(0, 1), math.sqrt(2.0) * alpha
    return _two_branch(b1, b2, "css", {"alpha": alpha}, frame=(0.0, (vac, vac), (shift, -shift)))


def psv(r: float, m: int = 1) -> TwoBranchState:
    """Photon-subtracted squeezed vacuum superposition.

    Branches are (u +- v)/sqrt(2) with u, v the normalized m- and
    (m+1)-photon-subtracted squeezed vacua; psi_plus is then proportional
    to a^m S|0> and psi_minus to a^{m+1} S|0>.  The squeeze applied here is
    exp[(r/2)(a^dag^2 - a^2)], i.e. the p quadrature is squeezed: photon
    subtraction then carves two lobes along the wide x axis and the
    branches are well separated there.  (With the opposite sign the lobe
    amplitudes cancel and the branches barely separate at any angle.)
    Homodyne detection therefore reads x (phi = 0): u and v are real with
    opposite photon parity, so at phi = pi/2 both branches share one p
    distribution and D_KD vanishes.

    a^k S|0> = S (cosh r a + sinh r a^dag)^k |0>, so each branch is also S
    applied to a core on m + 2 levels.  The branch set carries the cores as
    its frame, from which homodyne detection at phi = 0 is evaluated in
    closed form.
    """
    r = float(r)
    if not (0.0 <= r <= 2.5):
        raise UnsupportedRangeError(f"psv requires 0 <= r <= 2.5, got {r}")
    if m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    u, v = _squeezed_states(-r, (m, m + 1))
    # u and v have opposite photon-number parity, hence are orthogonal
    b1 = superpose(u, v, +1)
    b2 = superpose(u, v, -1)
    core_u, core_v = _core(r, m), _core(r, m + 1)
    cores = (superpose(core_u, core_v, +1), superpose(core_u, core_v, -1))
    return _two_branch(b1, b2, "psv", {"r": r, "m": m}, frame=(r, cores, (0.0, 0.0)))


def _core(r: float, m: int) -> FockVector:
    """The normalized core (cosh r a + sinh r a^dag)^m |0> on m + 1 levels,
    so that a^m S|0> = S core for S = S(-r) as psv builds it.  The core is
    rescaled at each step."""
    k = np.sqrt(np.arange(1.0, m + 1))
    core = np.zeros(m + 1)
    core[0] = 1.0
    c, s = math.cosh(r), math.sinh(r)
    for _ in range(m):
        core = c * np.append(k * core[1:], 0.0) + s * np.append(0.0, k * core[:-1])
        core /= np.abs(core).max()
    return FockVector(core / math.sqrt(core @ core))


def dfs(alpha: float) -> TwoBranchState:
    """Displaced Fock superposition: branches D(alpha)(|0> +- |1>)/sqrt(2).

    The branch set carries the frame of its two-level cores (|0> +- |1>)/sqrt(2)
    moved to x = sqrt(2) alpha, from which homodyne detection at phi = 0 is
    exact.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 4.0):
        raise UnsupportedRangeError(f"dfs requires 0 <= alpha <= 4, got {alpha}")
    vac, one = fock_state(0, 2), fock_state(1, 2)
    cores = (superpose(vac, one, +1), superpose(vac, one, -1))
    # the 4 input levels set where the displaced branches' cutoffs start
    b1, b2 = (displace(pad_to_cutoff(core, 4), alpha) for core in cores)
    shift = math.sqrt(2.0) * alpha
    return _two_branch(b1, b2, "dfs", {"alpha": alpha}, frame=(0.0, cores, (shift, shift)))


# family -> (name of its swept parameter, constructor reading its own keywords)
_FAMILY_TABLE = {
    "css": ("alpha", lambda params: css(params["alpha"])),
    "psv": ("r", lambda params: psv(params["r"], params.get("m", 1))),
    "dfs": ("alpha", lambda params: dfs(params["alpha"])),
}

FAMILIES = tuple(_FAMILY_TABLE)
PARAM_NAMES = {family: param for family, (param, _) in _FAMILY_TABLE.items()}


def build(family: str, **params) -> TwoBranchState:
    """Construct a catalog state by family name (CLI entry point); keywords
    the family does not take, such as ``m`` for css and dfs, are ignored."""
    if family not in _FAMILY_TABLE:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _FAMILY_TABLE[family][1](params)
