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

import numpy as np

from .errors import (
    DegenerateSubtractionError,
    DegenerateSuperpositionError,
    InvalidArgumentError,
    UnsupportedRangeError,
)

DEFAULT_TAIL_TOLERANCE = 1e-12
_NORM_TOL = 1e-8
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def tail_tolerance_default() -> float:
    """Default truncation tolerance; MACROLENS_TAIL_TOL overrides it."""
    env = os.environ.get("MACROLENS_TAIL_TOL")
    try:
        return float(env) if env else DEFAULT_TAIL_TOLERANCE
    except ValueError:
        raise InvalidArgumentError(f"MACROLENS_TAIL_TOL={env!r} is not a number") from None


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


def _check_tail_tolerance(tol: float | None) -> float:
    """The given tolerance, or the default when None, checked for range."""
    if tol is None:
        tol = tail_tolerance_default()
    if not (0.0 < tol <= 1e-6):
        raise InvalidArgumentError(f"tail_tolerance must be in (0, 1e-6], got {tol}")
    return tol


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
        n = max(self.cutoff, other.cutoff)
        a = pad_to_cutoff(self, n).amplitudes
        b = pad_to_cutoff(other, n).amplitudes
        return complex(np.vdot(a, b))

    def fidelity(self, other: "FockVector") -> float:
        return abs(self.overlap(other)) ** 2


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
    scale it by ``scaled_cutoffs``; returns (cutoff, amplitudes, tail).

    The tail is 1 - sum |c_n|^2, which stops falling at roundoff; a doubling
    that does not lower it ends the growth as unsupported.
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
    return cutoff, amps, tail


def coherent_state(alpha, tail_tolerance: float | None = None) -> FockVector:
    """Coherent state |alpha> with amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    tol = _check_tail_tolerance(tail_tolerance)
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise InvalidArgumentError("alpha must be finite")
    nbar = abs(alpha) ** 2

    def expand(cutoff: int):
        n = np.arange(cutoff)
        if nbar == 0.0:
            amps = np.zeros(cutoff, dtype=complex)
            amps[0] = 1.0
            return amps, 0.0
        log_mag = n * math.log(abs(alpha)) - 0.5 * _lgamma(n + 1.0) - nbar / 2.0
        amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
        tail = max(0.0, 1.0 - float(np.sum(np.exp(2.0 * log_mag))))
        return amps, tail

    cutoff = max(16, math.ceil(nbar + 10.0 * math.sqrt(nbar + 1.0)))
    _, amps, tail = _grow_cutoff(expand, cutoff, tol)
    return from_amplitudes(amps, tail_mass=tail)


def squeezed_vacuum(r: float, tail_tolerance: float | None = None) -> FockVector:
    """Squeezed vacuum S(r)|0> with S(r) = exp[(r/2)(a^2 - a^dag^2)].

    r > 0 squeezes the x quadrature: var(x) = e^{-2r}/2, var(p) = e^{2r}/2.
    Only even photon numbers are populated.
    """
    tol = _check_tail_tolerance(tail_tolerance)
    r = float(r)
    if not math.isfinite(r):
        raise InvalidArgumentError("r must be finite")
    if abs(r) > 3.0:
        raise UnsupportedRangeError(f"|r| = {abs(r)} exceeds the supported 3.0")
    if r == 0.0:
        return fock_state(0, 16)
    t = -math.tanh(r)

    def expand(cutoff: int):
        m = np.arange((cutoff + 1) // 2)
        # c_{2m} = (-tanh r)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh r)
        log_mag = (
            m * math.log(abs(t))
            + 0.5 * _lgamma(2 * m + 1.0)
            - m * math.log(2.0)
            - _lgamma(m + 1.0)
            - 0.5 * math.log(math.cosh(r))
        )
        even = np.sign(t) ** m * np.exp(log_mag)
        tail = max(0.0, 1.0 - float(np.sum(even**2)))
        return even, tail

    cutoff = max(16, math.ceil(20.0 * math.exp(2.0 * abs(r))))
    cutoff, even, tail = _grow_cutoff(expand, cutoff, tol)
    amps = np.zeros(cutoff, dtype=complex)
    amps[::2][: even.size] = even
    return from_amplitudes(amps, tail_mass=tail)


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
    N_m a^m |state> has unit norm.
    """
    if m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    if m >= state.cutoff:
        raise DegenerateSubtractionError(f"a^{m} annihilates the state")
    work = np.array(state.amplitudes)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(m):
            n = np.arange(1, work.size)
            shifted = np.zeros_like(work)
            shifted[: work.size - 1] = np.sqrt(n) * work[1:]
            work = shifted
        norm_sq = float(np.vdot(work, work).real)
    if not math.isfinite(norm_sq):
        raise UnsupportedRangeError(f"the norm of a^{m} on this state overflows a double")
    if norm_sq <= 1e-14:
        raise DegenerateSubtractionError(f"a^{m} annihilates the state")
    norm = math.sqrt(norm_sq)
    return FockVector(work / norm, tail_mass=state.tail_mass), 1.0 / norm


def displace(state: FockVector, alpha) -> FockVector:
    """Apply the displacement operator D(alpha) = exp(alpha a^dag - conj(alpha) a).

    The cutoff is grown before application so the truncated generator acts
    unitarily on the state's support.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise InvalidArgumentError("alpha must be finite")
    if alpha == 0:
        return state
    mag = abs(alpha)
    grown = state.cutoff + _CUTOFF_SCALE.get() * math.ceil(mag**2 + 8.0 * mag + 8.0)
    sqrt_n = np.sqrt(np.arange(1, grown))
    lower = np.diag(sqrt_n, 1)  # annihilation operator
    generator = alpha * lower.conj().T - np.conj(alpha) * lower
    padded = np.zeros(grown, dtype=complex)
    padded[: state.cutoff] = state.amplitudes
    # exp(generator) = exp(-iH) with H = i*generator Hermitian
    lam, vecs = np.linalg.eigh(1j * generator)
    displaced = vecs @ (np.exp(-1j * lam) * (vecs.conj().T @ padded))
    # the truncated generator is anti-Hermitian, so the norm is preserved
    # up to roundoff; renormalize to keep the FockVector invariant exact
    return from_amplitudes(displaced, tail_mass=state.tail_mass)


def superpose(a: FockVector, b: FockVector, sign: int) -> FockVector:
    """Normalized superposition (a + sign*b) / ||a + sign*b||."""
    if sign not in (+1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    n = max(a.cutoff, b.cutoff)
    va = pad_to_cutoff(a, n).amplitudes
    vb = pad_to_cutoff(b, n).amplitudes
    combined = va + sign * vb
    nrm = np.linalg.norm(combined)
    if nrm <= 1e-10:
        raise DegenerateSuperpositionError("components cancel destructively")
    # Cauchy-Schwarz bound on the truncated mass of the unnormalized sum
    tail = (math.sqrt(a.tail_mass) + math.sqrt(b.tail_mass)) ** 2 / nrm**2
    return FockVector(combined / nrm, tail_mass=tail)


def _ladder_expectations(state: FockVector) -> tuple[complex, float, complex]:
    """(<a>, <n>, <a^2>) via tridiagonal ladder action."""
    c = state.amplitudes
    n = np.arange(c.size)
    mean_n = float(np.sum(n * np.abs(c) ** 2))
    mean_a = complex(np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:]))
    if c.size >= 3:
        k = np.arange(c.size - 2)
        mean_a2 = complex(
            np.sum(np.conj(c[:-2]) * np.sqrt((k + 1.0) * (k + 2.0)) * c[2:])
        )
    else:
        mean_a2 = 0.0 + 0.0j
    return mean_a, mean_n, mean_a2


def moments(state: FockVector) -> Moments:
    """First/second quadrature moments and photon number of a pure state."""
    mean_a, mean_n, mean_a2 = _ladder_expectations(state)
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
    mean_a, mean_n, mean_a2 = _ladder_expectations(state)
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
