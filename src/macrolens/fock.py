"""Pure states in a truncated Fock basis and their phase-space moments.

Quadrature convention used throughout the package:

    x = (a + a^dag) / sqrt(2),   p = (a - a^dag) / (i sqrt(2)),

so [x, p] = i and the vacuum has var(x) = var(p) = 1/2.  The photon number
operator decomposes as n = (x^2 + p^2 - 1) / 2.
"""

from __future__ import annotations

import contextvars
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSubtractionError,
    DegenerateSuperpositionError,
    InvalidArgumentError,
    UnsupportedRangeError,
)

DEFAULT_TAIL_TOLERANCE = 1e-12
_NORM_TOL = 1e-8


_CUTOFF_SCALE = contextvars.ContextVar("macrolens_cutoff_scale", default=1)


@contextmanager
def scaled_cutoffs(factor: int):
    """Multiply every auto-grown cutoff by ``factor`` within the block.

    Used for truncation-robustness audits: results computed under
    ``scaled_cutoffs(2)`` should agree with the defaults to well below the
    reporting tolerances.
    """
    if factor < 1:
        raise InvalidArgumentError("cutoff scale factor must be >= 1")
    token = _CUTOFF_SCALE.set(int(factor))
    try:
        yield
    finally:
        _CUTOFF_SCALE.reset(token)


def _deferred(make):
    """``make``, a function of no arguments, to be called later under the
    cutoff scale in force now: a deferred build grows the cutoffs that an
    immediate one would."""
    scale = _CUTOFF_SCALE.get()

    def call():
        with scaled_cutoffs(scale):
            return make()
    return call


def _check_tail_tolerance(tol: float | None = None) -> float:
    """The given tolerance, or when None MACROLENS_TAIL_TOL or the default, range-checked."""
    if tol is None:
        env = os.environ.get("MACROLENS_TAIL_TOL")
        try:
            tol = float(env) if env else DEFAULT_TAIL_TOLERANCE
        except ValueError:
            raise InvalidArgumentError(f"MACROLENS_TAIL_TOL={env!r} is not a number") from None
    if not (0.0 < tol <= 1e-6):
        raise InvalidArgumentError(f"tail_tolerance must be in (0, 1e-6], got {tol}")
    return tol


# perfbench/spans.py imports this name to size its cutoff counters
tail_tolerance_default = _check_tail_tolerance


@dataclass(frozen=True)
class FockVector:
    """Normalized pure state sum_n c_n |n> truncated at n = cutoff - 1.

    ``tail_mass`` is the |c_n|^2 mass estimated to lie at or beyond the
    cutoff at construction time; constructors grow the cutoff until it is
    below the requested tolerance.
    """

    amplitudes: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidArgumentError("amplitudes must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(amps)):
            raise InvalidArgumentError("non-finite amplitude")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_TOL:
            raise InvalidArgumentError(
                f"state is not normalized (norm = {nrm!r}); use from_amplitudes()"
            )
        amps /= nrm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.tail_mass < 0.0:
            raise InvalidArgumentError("tail_mass must be >= 0")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "FockVector") -> complex:
        n = min(self.cutoff, other.cutoff)  # levels beyond it meet zeros
        return complex(np.vdot(self.amplitudes[:n], other.amplitudes[:n]))

    def fidelity(self, other: "FockVector") -> float:
        return abs(self.overlap(other)) ** 2

    @cached_property
    def _ladder(self) -> tuple[complex, float, complex]:
        """(<a>, <n>, <a^2>), evaluated once per vector."""
        c = self.amplitudes
        n = np.arange(c.size)
        mean_n = float(np.sum(n * np.abs(c) ** 2))
        mean_a = complex(np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:]))
        k = np.arange(c.size - 2)  # empty below three levels, so <a^2> = 0
        mean_a2 = complex(np.sum(np.conj(c[:-2]) * np.sqrt((k + 1.0) * (k + 2.0)) * c[2:]))
        return mean_a, mean_n, mean_a2


def from_amplitudes(amplitudes, tail_mass: float = 0.0) -> FockVector:
    """Build a FockVector from an arbitrary non-zero amplitude sequence."""
    amps = np.asarray(amplitudes, dtype=complex)
    nrm = np.linalg.norm(amps)
    if nrm < 1e-12:
        raise InvalidArgumentError("cannot normalize a (near-)zero vector")
    return FockVector(amps / nrm, tail_mass=tail_mass)


@dataclass(frozen=True)
class Moments:
    """First and second moments of a single-mode state."""

    mean_a: complex
    mean_n: float
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float


@dataclass(frozen=True)
class Ensemble:
    """Statistical mixture: weighted list of pure states."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise InvalidArgumentError("ensemble needs at least one component")
        for w, s in comps:
            if not (0.0 < w <= 1.0):
                raise InvalidArgumentError(f"weight {w} outside (0, 1]")
            if not isinstance(s, FockVector):
                raise InvalidArgumentError("ensemble components must be FockVectors")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-10:
            raise InvalidArgumentError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "components", comps)


def _grow_cutoff(expand, cutoff: int, tol: float):
    """Double ``cutoff`` until ``expand(cutoff)`` has a tail below ``tol``, then
    scale it by ``scaled_cutoffs``; returns expand's (amplitudes, tail) there.

    A doubling that does not lower the tail ends the growth as unsupported,
    so a tail that stops falling cannot grow the basis without end.
    """
    amps, tail = expand(cutoff)
    while tail >= tol:
        cutoff *= 2
        amps, last = expand(cutoff)
        if last >= tail:
            raise UnsupportedRangeError(
                f"truncation tail stalls at {last:.3g}, above the tolerance {tol:g}"
            )
        tail = last
    scale = _CUTOFF_SCALE.get()
    if scale > 1:
        cutoff *= scale
        amps, tail = expand(cutoff)
    return amps, tail


def coherent_state(alpha, tail_tolerance: float | None = None) -> FockVector:
    """Coherent state |alpha> = D(alpha)|0>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    return _displaced(fock_state(0, 1), alpha, _check_tail_tolerance(tail_tolerance))


def squeezed_vacuum(r: float, tail_tolerance: float | None = None) -> FockVector:
    """Squeezed vacuum S(r)|0> with S(r) = exp[(r/2)(a^2 - a^dag^2)].

    r > 0 squeezes the x quadrature: var(x) = e^{-2r}/2, var(p) = e^{2r}/2.
    Only even photon numbers are populated.
    """
    ((amps, tail),) = _squeezed_amplitudes(r, (0,), tail_tolerance)
    return from_amplitudes(amps, tail_mass=tail)


def _squeezed_amplitudes(r: float, ks: tuple, tail_tolerance: float | None = None) -> list:
    """(amplitudes, dropped mass) of a^k S(r)|0> for each k in ``ks``, on one
    cutoff, grown from max(16, 20 e^{2|r|}) until every one of their tails is
    below the tolerance (a^k reweights the squeezed vacuum's tail by about
    n^k, and the parity of the cutoff decides which k loses a level).  The
    real amplitudes are normalized beyond the cutoff, as _squeezed returns them.
    """
    tol = _check_tail_tolerance(tail_tolerance)
    r = float(r)
    cutoff = _squeezed_start(r, ks)
    if r == 0.0:  # S(0)|0> is the vacuum, and _squeezed_start refused every k > 0
        return [(np.eye(1, cutoff)[0], 0.0)]

    def expand(levels: int):
        pairs = [_squeezed(r, k, levels) for k in ks]
        return pairs, max(tail for _, tail in pairs)

    # callers normalize only the grown amplitudes: at rho >= 1 _squeezed returns zeros
    pairs, _ = _grow_cutoff(expand, cutoff, tol)
    return pairs


def _squeezed_start(r: float, ks: tuple) -> int:
    """The cutoff _squeezed_amplitudes starts from, max(16, 20 e^{2|r|}), once
    r and ``ks`` pass its checks."""
    if not math.isfinite(r):
        raise InvalidArgumentError("r must be finite")
    if abs(r) > 3.0:
        raise UnsupportedRangeError(f"|r| = {abs(r)} exceeds the supported 3.0")
    if r == 0.0:  # S(0) = 1, so a^k annihilates it for every k >= 1
        if max(ks) > 0:
            raise DegenerateSubtractionError(f"a^{min(ks)} annihilates the vacuum")
        return 16
    cutoff = max(16, math.ceil(20.0 * math.exp(2.0 * abs(r))))
    # a^k S(r)|0> = S(r) (cosh r a - sinh r a^dag)^k |0>, whose core needs
    # k + 1 levels (and psv's frame O(k^2) time): refuse a k the start cannot hold
    if max(ks) + 1 > cutoff:
        raise UnsupportedRangeError(
            f"a^{max(ks)} does not fit the {cutoff} levels of the squeezed vacuum"
        )
    return cutoff


def _squeezed(r: float, k: int, cutoff: int) -> tuple[np.ndarray, float]:
    """Normalized a^k S(r)|0> on ``cutoff`` levels, and the mass beyond them.

    Levels n with n + k even obey c_{n+2} = -tanh r (n+k+1) / sqrt((n+1)(n+2)) c_n,
    so c_n has the sign of (-tanh r)^{(n+k)/2}; the magnitudes are summed as
    logs from n = k mod 2 and scaled by their largest, so nothing overflows.
    The mass is summed directly over 2 cutoff levels (1 - sum |c_n|^2 would
    stall at roundoff) and bounded past them by a geometric series in the
    larger of tanh^2 r, which the squared ratio approaches from below for
    k = 0, and the last level's squared ratio, from which it falls for k >= 1.
    """
    log_t2 = 2.0 * math.log(abs(math.tanh(r)))  # tanh^2 r itself may underflow
    n = np.arange(k % 2, 2 * cutoff, 2)
    # log of (n+k+1)^2 / ((n+1)(n+2)), which c_{n+2}^2 / c_n^2 is tanh^2 r times
    log_f = np.log1p(k / (n + 1.0)) + np.log1p((k - 1.0) / (n + 2.0))
    log_rho = log_t2 + max(0.0, log_f[-1])
    if log_rho >= 0.0:  # still rising past 2 cutoff levels: nothing bounds the rest
        return np.zeros(cutoff), 1.0
    log_mag = np.concatenate([[0.0], np.cumsum(0.5 * (log_t2 + log_f[:-1]))])
    mag = np.exp(log_mag - log_mag.max())
    rho = math.exp(log_rho)
    beyond = mag[-1] ** 2 * rho / (1.0 - rho)
    mass = mag @ mag + beyond
    amps = np.zeros(2 * cutoff)
    amps[n] = (-math.copysign(1.0, r)) ** ((n + k) // 2) * mag / math.sqrt(mass)
    dropped = mag[n >= cutoff]
    return amps[:cutoff], float(dropped @ dropped + beyond) / mass


def fock_state(n: int, cutoff: int) -> FockVector:
    """Number state |n> in a basis of the given cutoff."""
    if n < 0 or cutoff <= 0:
        raise InvalidArgumentError("need n >= 0 and cutoff > 0")
    if n >= cutoff:
        raise InvalidArgumentError(f"n = {n} does not fit below cutoff {cutoff}")
    amps = np.zeros(cutoff, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, tail_mass=0.0)


def subtract_photons(state: FockVector, m: int) -> tuple[FockVector, float]:
    """Apply a^m and renormalize.

    Returns the normalized state and the factor N_m such that
    N_m a^m |state> has unit norm.  Its ``tail_mass`` is 0 when the input's
    is 0, and 1 otherwise: a^m reweights the levels past the cutoff by about
    n^m, so no smaller bound follows from the input's tail mass.
    """
    if m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    if m >= state.cutoff:
        raise DegenerateSubtractionError(f"a^{m} annihilates the state")
    work = np.array(state.amplitudes)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        root = np.sqrt(np.arange(1, work.size))
        for _ in range(m):
            work[:-1] = root * work[1:]
            work[-1] = 0.0
        norm_sq = float(np.vdot(work, work).real)
    if not math.isfinite(norm_sq):
        raise UnsupportedRangeError(f"the norm of a^{m} on this state overflows a double")
    if norm_sq <= 1e-14:
        raise DegenerateSubtractionError(f"a^{m} annihilates the state")
    norm = math.sqrt(norm_sq)
    return FockVector(work / norm, tail_mass=float(state.tail_mass > 0.0)), 1.0 / norm


def displace(state: FockVector, alpha) -> FockVector:
    """D(alpha)|state>, D(alpha) = exp(alpha a^dag - conj(alpha) a), at the default tolerance."""
    tol = _check_tail_tolerance()
    if alpha == 0:
        return state
    return _displaced(state, alpha, tol)


def _displaced(state: FockVector, alpha, tol: float) -> FockVector:
    """D(alpha)|state> from <m|D(alpha)|n>, associated Laguerre polynomials in
    x = |alpha|^2 (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).

    f_p[k] = <p+k|D(|alpha|)|p> = (-1)^k <p|D(|alpha|)|p+k> gives column and
    row p; it obeys the Laguerre recurrence in p (the one in m diverges):
        f_{p+1} = [(2p+1+k-x) f_p - sqrt(p(p+k)) f_{p-1}] / sqrt((p+1)(p+1+k)).
    The mass at or past the cutoff is summed as _displaced_cutoffs says.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise InvalidArgumentError("alpha must be finite")
    mag, x, levels = abs(alpha), abs(alpha) ** 2, state.cutoff
    unit = alpha / mag if mag else 1.0

    def phases(size: int) -> np.ndarray:
        # e^{i n theta} for n < size as powers of e^{i theta}: exactly real for real alpha
        return np.cumprod(np.concatenate(([1.0 + 0j], np.full(size - 1, unit))))

    # e^{-i n theta} c_n, on which the real matrix D(|alpha|) acts; the rows
    # read it with signs (-1)^n, as <p|D(|alpha|)|p+k> = (-1)^k f_p[k]
    phased = state.amplitudes * np.conj(phases(levels))
    alternating = phased * (-1.0) ** np.arange(levels)

    cutoff, reach = _displaced_cutoffs(levels, mag)

    def expand(cutoff: int):
        size = cutoff + reach
        k = np.arange(size)
        root = np.sqrt(np.arange(size + levels))
        # f_0 is the coherent row of |alpha|: ratios mag/sqrt(j) outward from
        # its peak j = floor(x), so that nothing underflows near the peak
        peak = math.floor(x)
        up = np.cumprod(mag / root[peak + 1 : size])
        down = np.cumprod(root[peak:0:-1] / mag)
        f = np.concatenate([down[::-1], [1.0], up])
        f /= np.linalg.norm(f)
        f_prev = np.zeros(size)
        out = np.zeros(size, dtype=complex)
        for p in range(levels):
            if p > 0:
                f, f_prev = ((2 * p - 1 + k - x) * f - root[p - 1] * root[p - 1 : p - 1 + size]
                             * f_prev) / (root[p] * root[p : p + size]), f
            out[p:] += phased[p] * f[: size - p]
            out[p] += (-1) ** p * (f[1 : levels - p] @ alternating[p + 1 :])
        out *= phases(size)  # <m|D(alpha)|n> = e^{i(m-n) theta} <m|D(|alpha|)|n>
        return out[:cutoff], float(np.vdot(out[cutoff:], out[cutoff:]).real)

    amps, tail = _grow_cutoff(expand, cutoff, tol)
    # the input's own tail adds by Cauchy-Schwarz, as in superpose
    return from_amplitudes(amps, tail_mass=(math.sqrt(tail) + math.sqrt(state.tail_mass)) ** 2)


def _displaced_cutoffs(levels: int, mag: float) -> tuple[int, int]:
    """(start, reach) of the cutoff of D(alpha), |alpha| = mag, applied to a
    state on ``levels`` levels: the cutoff starts past the bulk of the moved
    state, and the mass at or past it is summed directly over ``reach`` more
    levels, 10|alpha| + 40 (1 - sum |c_n|^2 would stall at roundoff)."""
    x = mag**2
    return (levels - 1 + max(16, math.ceil(x + 10.0 * math.sqrt(x + 1.0))),
            math.ceil(10.0 * mag) + 40)


def superpose(a: FockVector, b: FockVector, sign: int) -> FockVector:
    """Normalized superposition (a + sign*b) / ||a + sign*b||."""
    if sign not in (+1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    combined = np.zeros(max(a.cutoff, b.cutoff), dtype=complex)
    combined[: a.cutoff] = a.amplitudes
    combined[: b.cutoff] += sign * b.amplitudes
    nrm = np.linalg.norm(combined)
    if nrm <= 1e-10:
        raise DegenerateSuperpositionError("components cancel destructively")
    # Cauchy-Schwarz bound on the truncated mass of the unnormalized sum
    tail = (math.sqrt(a.tail_mass) + math.sqrt(b.tail_mass)) ** 2 / nrm**2
    return FockVector(combined / nrm, tail_mass=tail)


def moments(state: FockVector) -> Moments:
    """First/second quadrature moments and photon number of a pure state."""
    mean_a, mean_n, mean_a2 = state._ladder
    mean_x = math.sqrt(2.0) * mean_a.real
    mean_p = math.sqrt(2.0) * mean_a.imag
    # x^2 = (a^2 + a^dag^2 + 2n + 1)/2, p^2 = (-a^2 - a^dag^2 + 2n + 1)/2
    x2 = mean_a2.real + mean_n + 0.5
    p2 = -mean_a2.real + mean_n + 0.5
    return Moments(
        mean_a=mean_a,
        mean_n=mean_n,
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=x2 - mean_x**2,
        var_p=p2 - mean_p**2,
    )


def quadrature_stats(state: FockVector, angle: float) -> tuple[float, float]:
    """Mean and variance of the rotated quadrature x_phi."""
    mean_a, mean_n, mean_a2 = state._ladder
    rot = mean_a * np.exp(-1j * angle)
    mean = math.sqrt(2.0) * rot.real
    x2 = (mean_a2 * np.exp(-2j * angle)).real + mean_n + 0.5
    return mean, x2 - mean**2


def pad_to_cutoff(state: FockVector, cutoff: int) -> FockVector:
    """Zero-extend the amplitude vector to the requested cutoff."""
    if cutoff < state.cutoff:
        raise InvalidArgumentError(
            f"cannot shrink cutoff {state.cutoff} to {cutoff}"
        )
    if cutoff == state.cutoff:
        return state
    amps = np.zeros(cutoff, dtype=complex)
    amps[: state.cutoff] = state.amplitudes
    return FockVector(amps, tail_mass=state.tail_mass)
