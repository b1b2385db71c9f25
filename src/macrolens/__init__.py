"""macrolens: macroscopicity measures for quantum optical states.

The package computes, for a catalog of two-branch superposition states,

* the objective macroscopicity N (fluctuation photon number),
* the branch distinguishability D under realistic homodyne or
  photon-number-resolving detectors with Gaussian resolution blur, and
* the subjective macroscopicity M = N * D,

and regenerates the reference figures as machine-readable tables via the
``macrolens`` command-line tool.
"""

from ._version import __version__
from .catalog import TwoBranchState, build, css, dfs, psv
from .distinguishability import (
    BranchSet,
    both_measures,
    d_bc,
    d_kd,
    dfs_kd_closed_form,
)
from .errors import MacrolensError
from .fock import (
    Ensemble,
    FockVector,
    Moments,
    coherent_state,
    displace,
    fock_state,
    from_amplitudes,
    moments,
    pad_to_cutoff,
    quadrature_stats,
    scaled_cutoffs,
    squeezed_vacuum,
    subtract_photons,
    superpose,
)
from .macroscopicity import MacroReport, m_subjective, n_fluct, report
from .measurement import (
    DetectorModel,
    Pdf,
    Pmf,
    WignerField,
    blur_pdf,
    blur_pmf,
    hermite_functions,
    homodyne_pdf,
    pnrd_pmf,
    wigner,
)

__all__ = [
    "__version__",
    "BranchSet",
    "DetectorModel",
    "Ensemble",
    "FockVector",
    "MacroReport",
    "MacrolensError",
    "Moments",
    "Pdf",
    "Pmf",
    "TwoBranchState",
    "WignerField",
    "blur_pdf",
    "blur_pmf",
    "both_measures",
    "build",
    "coherent_state",
    "css",
    "d_bc",
    "d_kd",
    "dfs",
    "dfs_kd_closed_form",
    "displace",
    "fock_state",
    "from_amplitudes",
    "hermite_functions",
    "homodyne_pdf",
    "m_subjective",
    "moments",
    "n_fluct",
    "pad_to_cutoff",
    "pnrd_pmf",
    "psv",
    "quadrature_stats",
    "report",
    "scaled_cutoffs",
    "squeezed_vacuum",
    "subtract_photons",
    "superpose",
    "wigner",
]
