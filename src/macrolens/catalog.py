"""The three two-branch state families studied by the package.

Each family provides branches |b1>, |b2> with equal coefficients 1/sqrt(2)
together with the superpositions psi_pm proportional to |b1> +- |b2>:

* css: coherent branches |alpha> and |-alpha> (even/odd cat superpositions)
* psv: sums/differences of m- and (m+1)-photon-subtracted squeezed vacuum
* dfs: displaced (|0> +- |1>)/sqrt(2) branches
"""

from __future__ import annotations

import math
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# d_kd is unused here but the perfbench/spans.py tracer still wraps catalog.d_kd
from .distinguishability import BranchSet, d_kd
from .errors import InvalidArgumentError, UnsupportedRangeError
# displace, squeezed_vacuum and subtract_photons, like d_kd, are unused here
# but wrapped by that tracer
from .fock import (
    FockVector,
    _check_tail_tolerance,
    _displaced,
    _displaced_cutoffs,
    _grow_cutoff,
    _squeezed_amplitudes,
    _squeezed_start,
    coherent_state,
    displace,
    fock_state,
    from_amplitudes,
    pad_to_cutoff,
    squeezed_vacuum,
    subtract_photons,
    superpose,
)


# The frame cores of css and dfs, which no parameter changes: each keeps its
# moments (FockVector._ladder) from one state to the next.
_VACUUM = fock_state(0, 1)
_DFS_CORES = tuple(superpose(fock_state(0, 2), fock_state(1, 2), sign) for sign in (+1, -1))


@dataclass(frozen=True)
class TwoBranchState:
    """A B=2 branch set with its superpositions psi_pm, proportional to
    |b1> +- |b2>, and their fluctuation photon numbers N and mean photon
    numbers <n>, (plus, minus), in closed form.

    psi_plus and psi_minus are built from the branches on first read.
    """

    branch_set: BranchSet
    family: str
    params: dict
    n_fluct: tuple
    mean_n: tuple

    @cached_property
    def psi_plus(self) -> FockVector:
        return superpose(*self.branch_set.branches, +1)

    @cached_property
    def psi_minus(self) -> FockVector:
        return superpose(*self.branch_set.branches, -1)


def _two_branch(family: str, params: dict, frame, branches, counts,
                n_fluct: tuple, mean_n: tuple) -> TwoBranchState:
    """A catalog state whose branches and count rows, functions of no
    arguments, are evaluated on first read in a copy of the context in force
    now: every context variable (the cutoff scale, numpy's errstate) reads as
    here, so a deferred build runs as an immediate one would.  Each build
    enters its own copy, as one context cannot be entered twice at once."""
    coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
    context = copy_context()
    branch_set = BranchSet(coeffs, lambda: context.copy().run(branches), frame,
                           lambda: context.copy().run(counts))
    return TwoBranchState(branch_set, family, params, n_fluct, mean_n)


def css(alpha: float) -> TwoBranchState:
    """Coherent state superposition: branches |alpha> and |-alpha>.

    |+-alpha> = D(+-alpha)|0> is the vacuum moved to x = +-sqrt(2) alpha, so
    the branch set carries the frame ((|0>, |0>) at those shifts), from
    which homodyne detection at every angle is exact.  Both branches count
    photons as the Poisson row e^{-alpha^2} alpha^{2n} / n!, and psi_pm are
    the even and odd cats, whose <a> vanishes by parity: N = <n> =
    alpha^2 tanh^{+-1}(alpha^2).
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 4.0):
        raise UnsupportedRangeError(f"css requires 0 < alpha <= 4, got {alpha}")
    tol = _check_tail_tolerance()
    shift = math.sqrt(2.0) * alpha
    x = alpha * alpha
    # as x -> 0 the odd cat tends to |1>, and x / tanh(x) to 1
    n = (x * math.tanh(x), x / math.tanh(x) if x else 1.0)
    return _two_branch(
        "css", {"alpha": alpha}, (0.0, (_VACUUM, _VACUUM), (shift, -shift)),
        lambda: (coherent_state(alpha, tol), coherent_state(-alpha, tol)),
        lambda: _displaced_counts(alpha, (0.0,), 1, tol)[[0, 0]],
        n, n,
    )


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
    its frame, from which homodyne detection at every angle is evaluated in
    closed form; N and <n> of psi_pm come with the cores of u and v (see
    _cores).  u and v share no photon number, so both branches count
    photons as (|u_n|^2 + |v_n|^2) / 2.
    """
    r = float(r)
    if not (0.0 <= r <= 2.5):
        raise UnsupportedRangeError(f"psv requires 0 <= r <= 2.5, got {r}")
    if m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    tol = _check_tail_tolerance()
    _squeezed_start(-r, (m, m + 1))  # refuses r = 0 and an m the start levels cannot hold
    (core_u, n_u), (core_v, n_v) = _cores(r, m)
    cores = (superpose(core_u, core_v, +1), superpose(core_u, core_v, -1))
    n = (n_u, n_v)
    # the amplitudes of u and v, grown once for the branches and the count rows
    subtracted = cache(lambda: _squeezed_amplitudes(-r, (m, m + 1), tol))

    def branches():
        u, v = (from_amplitudes(amps, tail_mass=tail) for amps, tail in subtracted())
        # u and v have opposite photon-number parity, hence are orthogonal
        return superpose(u, v, +1), superpose(u, v, -1)

    def counts():
        row = sum(amps**2 / (amps @ amps) for amps, _ in subtracted()) / 2.0
        return np.stack([row, row])

    return _two_branch("psv", {"r": r, "m": m}, (r, cores, (0.0, 0.0)), branches, counts, n, n)


def _cores(r: float, m: int) -> list:
    """[(u, N_u), (v, N_v)]: the normalized cores A^k |0> of k = m and m + 1,
    on k + 1 levels, with A = S^dag a S = cosh r a + sinh r a^dag for
    S = S(-r) as psv builds it, so that a^k S|0> = S core.  <n> of S core
    is |A core|^2, read off the walk's next step; it is also N, as a core
    holds one photon-number parity and so <a> = 0.  One walk of A from |0>
    on m + 3 levels gives both, rescaled at each step."""
    k = np.sqrt(np.arange(1.0, m + 3))
    step = np.zeros(m + 3)
    step[0] = 1.0
    c, s = math.cosh(r), math.sinh(r)
    cores = []
    for n in range(m + 2):
        nxt = c * np.append(k * step[1:], 0.0) + s * np.append(0.0, k * step[:-1])
        if n >= m:
            core = step[:n + 1]
            norm = core @ core
            cores.append((FockVector(core / math.sqrt(norm)), float(nxt @ nxt / norm)))
        step = nxt / np.abs(nxt).max()
    return cores


def dfs(alpha: float) -> TwoBranchState:
    """Displaced Fock superposition: branches D(alpha)(|0> +- |1>)/sqrt(2).

    The branch set carries the frame of its two-level cores (|0> +- |1>)/sqrt(2)
    moved to x = sqrt(2) alpha, from which homodyne detection at every angle
    is exact.  psi_plus = D(alpha)|0> and psi_minus = D(alpha)|1>, so
    (N, <n>) is (0, alpha^2) and (1, alpha^2 + 1).
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 4.0):
        raise UnsupportedRangeError(f"dfs requires 0 <= alpha <= 4, got {alpha}")
    tol = _check_tail_tolerance()
    shift = math.sqrt(2.0) * alpha
    # 4 input levels set where the cutoffs of both branches and count rows start
    return _two_branch(
        "dfs", {"alpha": alpha}, (0.0, _DFS_CORES, (shift, shift)),
        lambda: tuple(_displaced(pad_to_cutoff(core, 4), alpha, tol) for core in _DFS_CORES),
        lambda: _displaced_counts(alpha, (1.0, -1.0), 4, tol),
        (0.0, 1.0), (alpha * alpha, alpha * alpha + 1.0),
    )


def _displaced_counts(alpha: float, signs, levels: int, tol: float) -> np.ndarray:
    """Photon-count rows of D(alpha) (|0> + s|1>) / sqrt(1 + s^2), one row
    per s in ``signs``, normalized on the cutoff that fock._displaced grows
    for D(alpha) on ``levels`` input levels, as the displaced FockVectors
    are.  With c_n = <n|D(alpha)|0> = e^{-alpha^2/2} alpha^n / sqrt(n!),
    <n|D(alpha)|1> = sqrt(n) c_{n-1} - alpha c_n.
    """
    def rows_on(size: int) -> np.ndarray:
        root = np.sqrt(np.arange(size))
        c = math.exp(-0.5 * alpha * alpha) * np.cumprod(np.append(1.0, alpha / root[1:]))
        one = root * np.append(0.0, c[:-1]) - alpha * c
        return np.array([(c + s * one) ** 2 / (1.0 + s * s) for s in signs])

    start, reach = _displaced_cutoffs(levels, alpha)

    def expand(cutoff: int):
        rows = rows_on(cutoff + reach)
        return rows[:, :cutoff], float(rows[:, cutoff:].sum(axis=1).max())

    rows, _ = _grow_cutoff(expand, start, tol)
    return rows / rows.sum(axis=1, keepdims=True)


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
