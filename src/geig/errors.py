"""Exception types shared across the package."""


class GeigError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(GeigError, ValueError):
    """An argument violates a documented precondition (shape, range, format)."""


class NotPositiveDefiniteError(GeigError, ArithmeticError):
    """A matrix required to be symmetric positive definite is not."""


class NonConvergenceError(GeigError, RuntimeError):
    """An iterative solver exhausted its budget.

    Carries whatever partial results the solver produced so callers can
    report them instead of losing the run.
    """

    def __init__(self, message, history=None, result=None):
        super().__init__(message)
        self.history = history
        self.result = result


class DegenerateBasisError(GeigError, RuntimeError):
    """All trial directions collapsed during orthonormalization."""


class LoadError(GeigError, ValueError):
    """A data file failed to parse; message names the offending location."""
