"""Exception types shared across the package.

Metric table validation failures carry enough context (indices, JSON paths)
to point at the offending entry of a loaded file.
"""
from __future__ import annotations


class CotypeLabError(Exception):
    """Base class for all errors raised by this package."""


class MetricValidationError(CotypeLabError):
    """A distance table violates one of the metric axioms.

    Attributes:
        indices: tuple of point indices witnessing the violation.
        json_path: position of the offending entry when the table came
            from a JSON document, e.g. "$.dist[0][1]".
    """

    axiom = "metric"

    def __init__(self, message: str, indices: tuple = (), json_path: str = ""):
        super().__init__(message)
        self.indices = indices
        self.json_path = json_path


class AsymmetryError(MetricValidationError):
    axiom = "symmetry"


class NegativeDistanceError(MetricValidationError):
    axiom = "nonnegativity"


class NonzeroDiagonalError(MetricValidationError):
    axiom = "zero diagonal"


class ZeroOffDiagonalError(MetricValidationError):
    axiom = "separation"


class TriangleViolationError(MetricValidationError):
    axiom = "triangle inequality"


class SchemaViolationError(CotypeLabError):
    """A JSON document does not match the expected shape."""

    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


class DimensionMismatchError(CotypeLabError):
    """Operands have incompatible dimensions."""


class AlphaOutOfRangeError(CotypeLabError):
    """Snowflake exponent must lie in (0, 1]."""


class UnreachableError(CotypeLabError):
    """No path exists between the given points in the requested graph."""


class NotInjectiveError(CotypeLabError):
    """A map that must be injective sends two points to the same value."""

    def __init__(self, message: str, pair: tuple = ()):
        super().__init__(message)
        self.pair = pair


class OddMError(CotypeLabError):
    """The torus side length must be even for half-circumference shifts."""


class OddEllError(CotypeLabError):
    """The shift parameter of the diagonal comparison must be even."""


class EvenKError(CotypeLabError):
    """The smoothing radius must be odd."""


class KTooLargeError(CotypeLabError):
    """The smoothing radius must stay below half the torus side."""


class BudgetExceededError(CotypeLabError):
    """The requested computation is larger than the configured budget."""


class NonFiniteValuesError(CotypeLabError):
    """A value table holds NaN or infinite entries."""


class PreconditionViolationError(CotypeLabError):
    """An operation precondition does not hold for the given arguments."""


class HypothesisFailedError(CotypeLabError):
    """The inequality hypothesis required by an extraction does not hold."""

    def __init__(self, message: str, eta: float = float("nan")):
        super().__init__(message)
        self.eta = eta


class NotFoundError(CotypeLabError):
    """A scan finished without locating a parameter meeting the target.

    Carries the measured profile so callers can inspect how close the scan
    came.
    """

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile if profile is not None else []


class InvariantViolationError(CotypeLabError):
    """A mathematically guaranteed bound failed numerically.

    This should never fire; it indicates a genuine defect, not bad input.
    """


class UnknownCommandError(CotypeLabError):
    """The command line named a subcommand or selector that does not exist."""


class EmptySeriesError(CotypeLabError):
    """Plot emission needs at least one data point."""
