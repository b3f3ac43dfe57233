"""Exception hierarchy shared by every confinedgas module."""


class ConfinedGasError(Exception):
    """Base class for all library errors."""


class DomainError(ConfinedGasError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(ConfinedGasError):
    """A requested error bound could not be certified.

    The family of numerical failures: the command line exits 4 for this
    class and its subclasses, and 3 for every other library error.
    ``achieved`` carries the best bound that was reached, when known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class GeometryError(ConfinedGasError):
    """Invalid or degenerate container geometry."""


class ModelError(ConfinedGasError):
    """The asymptotic expansion is meaningless for these inputs."""


class SingularityError(ConfinedGasError):
    """A closed-form denominator fell below the safe threshold."""


class NoBracketError(ConfinedGasError):
    """No sign change found while bracketing a root."""


class NonMonotoneError(ConfinedGasError):
    """Residual is not monotone across the bracket; model invalid here."""


class ResourceError(ConfinedGasError):
    """Requested enumeration exceeds the configured resource cap."""


class ConvergenceError(AccuracyError):
    """An iterative scheme failed to converge."""


class TruncationError(AccuracyError):
    """A truncated sum cannot certify the requested accuracy."""


class UsageError(ConfinedGasError):
    """A malformed command line; the command line exits 3 for it, as for
    any other invalid input."""


class MissingParameter(UsageError):
    """A required option was not given."""


class BadParameter(UsageError):
    """An option's value is not of its type or not one of its choices."""


class BadOptionUsage(UsageError):
    """An option was given without its value, or with one it takes none of."""


class NoSuchOption(UsageError):
    """An option that the command does not define."""


class NoSuchCommand(UsageError):
    """A command that the command line does not define."""
