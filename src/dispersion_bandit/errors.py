"""Exception types shared across the package.

Everything derives from :class:`DispersionBanditError` so callers can catch
broadly, while tests and the CLI can distinguish failure modes.
"""


class DispersionBanditError(ValueError):
    """Base class for all package errors."""


def prefix_message(exc: DispersionBanditError, prefix: str) -> None:
    """Put `prefix: ` before `exc`'s message, naming where it was raised."""
    exc.args = (f"{prefix}: {exc.args[0]}",) + exc.args[1:] if exc.args else (prefix,)


class InvalidItemError(DispersionBanditError):
    """Item id is not part of the catalog."""


class DuplicateItemError(DispersionBanditError):
    """Item appears twice in a slate, or is appended to a slate containing it."""


class DimensionMismatchError(DispersionBanditError):
    """Vector/matrix dimensions disagree with the catalog or statistics."""


class UndefinedSimilarityError(DispersionBanditError):
    """Cosine similarity requested against a zero-norm vector."""


class InsufficientCandidatesError(DispersionBanditError):
    """Fewer candidates than the number of items to select."""


class TooLargeInstanceError(DispersionBanditError):
    """Exhaustive enumeration would exceed the configured subset budget."""


class DegenerateInstanceError(DispersionBanditError):
    """Optimum not positive (ratio undefined), or no subset has a value above -inf."""


class NumericalDegeneracyError(DispersionBanditError):
    """A matrix that must be positive definite failed to invert."""


class InvalidFeedbackError(DispersionBanditError):
    """Reward outside [0, 1], or feedback shaped inconsistently with the slate."""


class ProtocolViolationError(DispersionBanditError):
    """Replay protocol broken, e.g. an already-shown item was recommended."""


class UndefinedDiversityError(DispersionBanditError):
    """Diversity of a slate with fewer than two items is undefined."""


class ExhaustedCandidatesError(DispersionBanditError):
    """Fewer than K candidates remain; the episode terminates gracefully."""


class ParseError(DispersionBanditError):
    """Malformed dataset line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class EmptyDatasetError(DispersionBanditError):
    """No records survive parsing/filtering."""


class PreconditionError(DispersionBanditError):
    """A documented theoretical precondition does not hold for the inputs."""
