"""Exception and warning types shared across the package."""


class SvasymError(Exception):
    """Base class for all package errors."""


class DomainError(SvasymError):
    """A point lies outside the state space of the volatility factor."""


class ValidationError(SvasymError):
    """A model document or config violates the model admissibility rules."""


class NotApplicableError(SvasymError):
    """The requested check has no meaning for this parameter set."""


class TruncationError(SvasymError):
    """A truncation window could not capture the required mass."""


class CenteringError(SvasymError):
    """The Poisson right-hand side fails the centering condition."""


class ConvexityError(SvasymError):
    """A curve that must be convex has violations beyond tolerance."""


class RangeError(SvasymError):
    """A query point lies outside the resolved range of a curve."""


class ResolutionError(SvasymError):
    """A quantity is below the numerical noise floor of the curve."""


class StabilityError(SvasymError):
    """A simulated path took a step inconsistent with its local diffusion."""


class ParseError(SvasymError):
    """A config document failed to parse."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKeyError(SvasymError):
    """A config document contains a key the loader does not recognize."""

    def __init__(self, key):
        super().__init__(f"unknown config key: {key!r}")
        self.key = key


class VarianceWarning(UserWarning):
    """A Monte Carlo estimate is in a heavy-tail / slow-mixing regime."""


class ATMWarning(UserWarning):
    """A strike is too close to at-the-money for the asymptote to be meaningful."""
