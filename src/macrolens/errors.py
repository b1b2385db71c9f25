"""Exception hierarchy shared by all macrolens modules."""


class MacrolensError(Exception):
    """Base class for all domain errors raised by this package."""

    #: short machine-readable code used by the CLI diagnostics
    code = "error"


class InvalidArgumentError(MacrolensError):
    code = "invalid-argument"


class UnsupportedRangeError(MacrolensError):
    """Parameter is syntactically valid but outside the supported range."""

    code = "unsupported-range"


class DegenerateSubtractionError(MacrolensError):
    """Photon subtraction annihilated the state (e.g. a|0> = 0)."""

    code = "degenerate-subtraction"


class DegenerateSuperpositionError(MacrolensError):
    """The two inputs cancel; the superposition cannot be normalized."""

    code = "degenerate-superposition"


class GridCoverageError(InvalidArgumentError):
    """Sampling grid too narrow or too coarse: the sampled mass misses 1."""

    code = "grid-coverage-error"


class UnsupportedMixedStateError(MacrolensError):
    """The fluctuation-photon measure is only defined for pure states."""

    code = "unsupported-mixed-state"
