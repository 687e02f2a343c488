"""Exception types raised by the library.

Everything derives from :class:`BornlabError` so callers can catch the whole
family; the CLI maps subfamilies onto exit codes.
"""


class BornlabError(Exception):
    """Base class for all library errors."""


class NonFinite(BornlabError):
    """An input matrix contains NaN or Inf entries."""


class NonHermitianInput(BornlabError):
    """A matrix required to be Hermitian exceeds the hermiticity tolerance."""


class InvalidDensityMatrix(BornlabError):
    """A state fails the density-matrix invariants (trace, positivity)."""


class DimensionMismatch(BornlabError):
    """Operand dimensions are incompatible."""


class DimensionCap(BornlabError):
    """A composite Hilbert space exceeds the configured dimension cap."""


class AmbiguousClustering(BornlabError):
    """Eigenvalue clustering produced a group wider than the cluster tolerance."""


class TableTooLarge(BornlabError):
    """A probability table would exceed the configured entry cap."""


class TimeOutOfRange(BornlabError):
    """A time argument lies outside a trajectory's domain [0, t_n]."""


class NegativeRate(BornlabError):
    """A GKLS rate has negative real part."""


class NonPositiveRate(BornlabError):
    """A jump rate that must be strictly positive is not."""


class UnmatchedFrequency(BornlabError):
    """A rate is keyed by a frequency that is not a Bohr frequency."""


class NonBlockDiagonalState(BornlabError):
    """An initial state violates the block-diagonal hypothesis of a check."""


class NumericalInvariantViolation(BornlabError):
    """An internally-guaranteed numerical identity failed; indicates a bug
    or an invalid input that slipped past validation."""


class ConfigError(BornlabError):
    """A scenario configuration failed to parse or validate.

    ``field`` names the offending config entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class UsageError(BornlabError):
    """A command line does not follow the CLI's usage block."""


class SFViolation(BornlabError):
    """The surrogate-field condition failed for a simulation that requires it."""
