"""Exception hierarchy shared across the package."""


class TwoBandError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwoBandError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GapClosedError(TwoBandError):
    """|d(k)| vanished where a normalized Bloch vector was required."""


class ConvergenceError(TwoBandError):
    """Adaptive quadrature exhausted its subdivision budget before reaching tolerance, or
    met an error that is not finite."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class NonQuantizedError(TwoBandError):
    """A winding-number accumulation did not land near an integer."""


class PartitionError(TwoBandError, ValueError):
    """A Brillouin-zone partition is malformed (overlap, gap, or bad breakpoints)."""


class ExceptionalPointError(TwoBandError):
    """The non-Hermitian eigenproblem degenerated (R^2 = 0 or self-orthogonal state)."""


class NormalizationError(TwoBandError, ValueError):
    """A state amplitude pair is not normalized."""


class UndefinedRatioError(TwoBandError):
    """The reference coefficient of the dominant component vanishes."""


class InsufficientDataError(TwoBandError, ValueError):
    """A sweep does not contain enough points for the requested analysis."""


class SpecError(TwoBandError, ValueError):
    """A sweep specification or CLI configuration is invalid."""
