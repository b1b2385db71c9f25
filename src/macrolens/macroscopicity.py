"""Objective and subjective macroscopicity.

The objective measure N is the photon number attributable to quantum
fluctuations, i.e. the mean photon number minimized over displacements:

    N = <n> - |<a>|^2 = (var(x) + var(p) - 1) / 2.

The subjective measure scales N by the observer's ability D to tell the
branches apart with a given detector: M = N * D.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distinguishability import both_measures
from .errors import InvalidArgumentError, UnsupportedMixedStateError
from .fock import Ensemble, FockVector, moments
from .measurement import DetectorModel


@dataclass(frozen=True)
class MacroReport:
    """All macroscopicity-related numbers for one (state, detector) point."""

    n_fluct: float
    mean_n: float
    d_bc: float
    d_kd: float
    m_bc: float
    m_kd: float
    detector: DetectorModel


def n_fluct(state: FockVector) -> float:
    """Fluctuation photon number of a pure state, clamped to >= 0.

    Mixed states are rejected: for them the quadrature variances blend
    quantum and classical statistics and the measure is not defined here.
    """
    return photon_numbers(state)[0]


def photon_numbers(state: FockVector) -> tuple[float, float]:
    """(N, <n>) of a pure state from one moments evaluation (see n_fluct)."""
    if isinstance(state, Ensemble):
        raise UnsupportedMixedStateError(
            "fluctuation photon number is only defined for pure states"
        )
    mom = moments(state)
    return max(0.0, mom.mean_n - abs(mom.mean_a) ** 2), mom.mean_n


def m_subjective(superposition_n: float, distinguishability: float) -> float:
    """Effective fluctuation photon number M = N * D."""
    if superposition_n < 0.0:
        raise InvalidArgumentError("fluctuation photon number must be >= 0")
    if not 0.0 <= distinguishability <= 1.0:
        raise InvalidArgumentError(
            f"distinguishability {distinguishability} outside [0, 1]"
        )
    return superposition_n * distinguishability


def report(two_branch, sign: int, detector: DetectorModel) -> MacroReport:
    """MacroReport for one superposition of a two-branch state.

    N and <n> are those of the chosen superposition (b1 + sign*b2); the
    distinguishability is that of the branch mixture under the detector.
    """
    if sign not in (+1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    psi = two_branch.psi_plus if sign == +1 else two_branch.psi_minus
    n, mean_n = photon_numbers(psi)
    dist_bc, dist_kd = both_measures(two_branch.branch_set, detector)
    return MacroReport(
        n_fluct=n,
        mean_n=mean_n,
        d_bc=dist_bc,
        d_kd=dist_kd,
        m_bc=m_subjective(n, dist_bc),
        m_kd=m_subjective(n, dist_kd),
        detector=detector,
    )
