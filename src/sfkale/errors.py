"""Exception types shared across the package."""

__all__ = [
    "SfkaleError",
    "InvalidPairError",
    "ConditionViolationError",
    "UnsupportedParameterError",
    "DegenerateMetricError",
    "InsufficientDecadeError",
]


class SfkaleError(Exception):
    """Base class for every error raised by this package."""


class InvalidPairError(SfkaleError, ValueError):
    """(p, q) is not a valid cyclic singularity pair."""


class ConditionViolationError(SfkaleError, ValueError):
    """A group parameter fails its admissibility condition.

    Carries the offending field and the condition text so callers can
    report exactly which constraint failed.
    """

    def __init__(self, field, condition):
        self.field = field
        self.condition = condition
        super().__init__(f"{field}: requires {condition}")


class UnsupportedParameterError(SfkaleError, ValueError):
    """Parameters are formally admissible but outside the computable range."""


class DegenerateMetricError(SfkaleError, ArithmeticError):
    """The Hermitian Hessian is not positive definite at a sample point."""


class InsufficientDecadeError(SfkaleError, ValueError):
    """Decay-fit radii span less than one factor of 10."""
