"""Exception taxonomy for the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ToolkitError):
    pass


class NotHermitianError(ToolkitError):
    pass


class NonCommutingError(ToolkitError):
    """Two PDIs admit no common refinement; carries the offending pair."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class InvalidPDIError(ToolkitError):
    pass


class IndexOutOfRangeError(ToolkitError):
    pass


class UnknownNameError(ToolkitError):
    pass


class NonUnitDirectionError(ToolkitError):
    pass


class PointerTooSmallError(ToolkitError):
    pass


class AmbiguousSpectrumError(ToolkitError):
    """Near-equal eigenvalues chain past the grouping gap; no grouping fits."""


class VerificationFailedError(ToolkitError):
    """Internal consistency check failed; indicates a bug, not bad input."""


class UnknownLabelError(ToolkitError):
    pass


class InconsistentFamilyError(ToolkitError):
    """Probabilities requested for a family that fails the consistency check."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ZeroProbabilityConditionError(ToolkitError):
    pass


class ZeroProbabilityOutcomeError(ToolkitError):
    pass


class NonCommutingABError(ToolkitError):
    pass


class MalformedLocalPDIError(ToolkitError):
    pass


class ProbabilityNormalizationError(ToolkitError):
    """Outcome probabilities drift beyond the renormalization window."""


class ParseError(ToolkitError):
    """Syntax error in a spec file; 1-based line/column point into the source."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        # Populated on the first error with every error found in the same
        # pass (itself included), capped at 20.
        self.all_errors: list[ParseError] = [self]


class ResolutionError(ParseError):
    """A parsed declaration or query references something unusable."""


# every exception class defined above is public
__all__ = [
    name for name, value in list(globals().items())
    if isinstance(value, type) and issubclass(value, ToolkitError)
]
