"""Exception hierarchy used across the package."""

__all__ = ["CcrkitError", "ValidationError", "CapacityError", "PreconditionError", "NumericError"]


class CcrkitError(Exception):
    """Base class for all errors raised by ccrkit."""


class ValidationError(CcrkitError):
    """An input violates a structural invariant (shape, norm, trace, ...)."""


class CapacityError(CcrkitError):
    """A requested object exceeds the configured dimension cap."""


class PreconditionError(CcrkitError):
    """A state does not satisfy the mathematical precondition of an operation."""


class NumericError(CcrkitError):
    """A numeric routine failed: an iterative solver did not converge, a LAPACK
    solve failed, or a measure came out NaN or infinite."""
