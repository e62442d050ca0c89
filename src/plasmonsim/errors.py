"""Exception types shared across the package.

The CLI maps ConfigError to exit code 1 and the numerical errors to exit
code 2; everything here ultimately derives from PlasmonSimError so callers
can catch one base class.
"""


class PlasmonSimError(Exception):
    """Base class for all package errors."""


class DomainError(PlasmonSimError, ValueError):
    """Input outside the physical domain of an operation (<=0, NaN, inf, ...)."""


class ConditioningError(PlasmonSimError):
    """A linear system was singular or too ill-conditioned to trust."""


class UndefinedYieldError(PlasmonSimError):
    """Quantum yield requested for a state with no output power at all."""


class TrackingAmbiguityError(PlasmonSimError):
    """Eigenvector-overlap branch tracking hit an unresolvable tie."""


class CalibrationError(PlasmonSimError):
    """Coupling calibration did not converge to its targets."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ConfigError(PlasmonSimError):
    """A scenario configuration or command-line input is malformed or fails validation.

    Also raised for an input the model cannot compute, such as an emitter so
    near a sphere that its multipole quench sum does not converge, or so far
    that the sum underflows.
    """
