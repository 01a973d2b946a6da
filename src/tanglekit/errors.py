"""Exception types shared across the package."""


class TangleError(Exception):
    """Base class for all tanglekit errors."""


class PDSyntaxError(TangleError):
    """Malformed PD text; carries line/column of the offending token."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NonPlanarCode(TangleError):
    """Rotation system fails the genus-0 Euler check."""


class ParityViolation(TangleError):
    """Linear twist system has no integer solution."""


class UnsupportedCase(TangleError):
    """Input falls in a case branch the calculus deliberately rejects."""


class NoSolution(TangleError):
    """Tangle equation system admits no solution."""


class UsageError(TangleError):
    """Invalid invocation or environment setting (exit code 2)."""


class BudgetExceeded(TangleError):
    """Crossing count exceeds the configured state-sum or enumeration budget."""


class InconsistentFacts(TangleError):
    """Fact closure derived both Planar and NotPlanar."""
