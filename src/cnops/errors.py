"""Exception types shared across the package."""


class CnopsError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMapError(CnopsError, ValueError):
    """The coefficient quadruple has (numerically) vanishing determinant."""


class NotSelfMapError(CnopsError, ValueError):
    """The map fails the closed-disk self-map test."""


class PoleError(CnopsError, ZeroDivisionError):
    """Evaluation at (or too close to) a pole of a rational expression."""


class SingularKernelError(CnopsError, ZeroDivisionError):
    """Reproducing-kernel evaluation with 1 - conj(w)*z numerically zero."""


class NotExpandableError(CnopsError, ValueError):
    """A series expansion is requested for a symbol with a pole in the closed disk."""


class HypothesisViolationError(CnopsError, ValueError):
    """Input violates a structural hypothesis (boundary fixed point, |b|=|c|, ...)."""
