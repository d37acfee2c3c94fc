"""Domain error types shared across the package.

Every error raised by library code (other than plain ``ZeroDivisionError``
for division by zero) derives from :class:`EgyptError`, so callers and the
CLI can catch domain failures uniformly while keeping stable error names.
"""


class EgyptError(Exception):
    """Base class for all domain errors raised by this package."""


class RadicandMismatch(EgyptError, ValueError):
    """Binary operation on quadratic values with different radicands."""


class DepthExceeded(EgyptError, ValueError):
    """A term would pass ``TERM_BIT_CAP`` bits (see :mod:`egyptfrac.exactnum`)."""


class NonPositiveInput(EgyptError, ValueError):
    """An expansion or recovery was asked to start from a value <= 0."""


class OddGreedyOnIrrational(EgyptError, TypeError):
    """Odd-greedy expansion is defined for rational inputs only."""


class NotReduced(EgyptError, ValueError):
    """A p/q pair was not in lowest terms; traces require canonical input."""


class NegativeBeta(EgyptError, ValueError):
    """The recovery offset must be >= 0."""


class SumExceeds(EgyptError, ValueError):
    """The reciprocal sum of the given terms is not strictly below the target."""


class RecoveryBreakdown(EgyptError, ArithmeticError):
    """The offset nearest-integer recursion broke down at some step.

    Carries the 1-based step index in ``step``; raised when a recovered term
    drops below 1 or the remainder stops being positive, both of which mean
    the recovery hypotheses do not hold for the given input.
    """

    def __init__(self, step: int, reason: str):
        self.step = step
        self.reason = reason
        super().__init__(f"recovery broke down at step {step}: {reason}")


class CorruptCheckpoint(EgyptError, ValueError):
    """An existing scan output file cannot be resumed from."""


class IoError(EgyptError, OSError):
    """Wrapper for OS-level failures while reading or writing scan output."""


class MissingDependency(EgyptError, ImportError):
    """An optional dependency is not installed (numpy, for the random walk)."""
