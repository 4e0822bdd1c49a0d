"""Exception types shared across the package."""


class RefleigError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RefleigError):
    """Malformed scalar, polynomial, weight, or group-file text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class OrderLimitError(RefleigError):
    """Cyclotomic order promotion exceeded the configured cap."""


class GroupClosureError(RefleigError):
    """Generator closure did not terminate within the element bound."""


class NonOrthogonalError(RefleigError):
    """A group element fails the exact orthogonality test k^T k = I."""


class NotReflectionSeriesError(RefleigError):
    """The reciprocal of an invariant series is not a product of (1 - t^d) factors.

    Raised with the message 'not a reflection-group invariant series' plus a
    witness describing where factorization broke down.
    """


class GeneratorSearchError(RefleigError):
    """No new fundamental invariant exists at a required degree."""


class SampleSpanError(RefleigError):
    """Sample translations do not span the ambient space."""


class InternalConsistencyError(RefleigError):
    """An invariant that should hold by theory failed; indicates a bug."""
