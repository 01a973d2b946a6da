"""Exception types shared across the package."""


class TangleError(Exception):
    """Base class for all tanglekit errors."""


class PDSyntaxError(TangleError):
    """Malformed PD text; carries the line of the offending token."""

    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line


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
