"""Exception hierarchy shared by all degenwave modules."""


class DegenWaveError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveInput(DegenWaveError):
    """A parameter that must be strictly positive was not."""


class ParameterOutOfRange(DegenWaveError, ValueError):
    """A scalar parameter lies outside its admissible range."""


class TimeTooShort(DegenWaveError):
    """Observation horizon below the admissible threshold."""


class BetaOutOfRange(DegenWaveError):
    """Carleman weight curvature outside its admissible interval."""


class InvalidMeshSpec(DegenWaveError):
    """Mesh construction parameters are unusable."""


class DivergentWeight(DegenWaveError):
    """A requested power weight makes an element integral diverge."""


class ConvergenceFailure(DegenWaveError):
    """An iterative eigenvalue or eigenvector computation stagnated."""


class TruncationTooSmall(DegenWaveError):
    """Requested modal truncation exceeds the available eigenpairs."""


class GridMismatch(DegenWaveError):
    """Field samples do not live on the expected grid."""


class DeltaOutOfRange(DegenWaveError):
    """Truncation parameter outside (0, 1)."""


class InsufficientData(DegenWaveError):
    """Not enough data points for the requested fit."""


class DegenerateCellTouched(DegenWaveError):
    """A finite-difference stencil reached the degenerate boundary r = 0."""


class ConfigError(DegenWaveError):
    """A run configuration failed validation."""


class NonFiniteReport(DegenWaveError):
    """A report holds an infinite value, which strict JSON cannot encode."""
