"""Exception types shared across the package.

Numerical failure modes (divergent iterations, rank deficiency) get their own
exception classes so callers can react to them individually; the CLI maps
them onto exit codes. `_integer` is the one check of integer arguments.
"""

__all__ = [
    "LiftedIlcError",
    "InvalidParameterError",
    "DimensionError",
    "EmptyHorizonError",
    "DegenerateDeletionError",
    "UndefinedDbError",
    "SingularSystemError",
    "RankDeficiencyError",
    "DivergenceError",
    "ConfigError",
]


class LiftedIlcError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(LiftedIlcError, ValueError):
    """A scalar argument is outside its admissible range."""


class DimensionError(LiftedIlcError, ValueError):
    """Vector or matrix operands have incompatible shapes."""


class EmptyHorizonError(InvalidParameterError):
    """A lifted system was requested with zero time steps."""


class DegenerateDeletionError(InvalidParameterError):
    """Row deletion would remove every row of the lifted system."""


class UndefinedDbError(InvalidParameterError):
    """Decibel conversion of a non-positive value."""


class SingularSystemError(LiftedIlcError):
    """The plant has no input-output coupling (all Markov parameters zero)."""


class RankDeficiencyError(LiftedIlcError):
    """A matrix expected to have full row rank does not.

    The numerical rank found at the configured tolerance is stored on the
    exception so callers can report how degenerate the problem actually is.
    """

    def __init__(self, message, numerical_rank):
        super().__init__(message)
        self.numerical_rank = numerical_rank


class DivergenceError(LiftedIlcError):
    """Eigenvalues outside the convergent range; iteration would diverge."""


class ConfigError(LiftedIlcError):
    """An experiment configuration file is missing, malformed, or invalid."""


def _integer(name, value, minimum, error=InvalidParameterError):
    """int(value) if whole, else InvalidParameterError; below minimum, `error`."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise error(f"{name} must be at least {minimum}, got {n}")
    return n
