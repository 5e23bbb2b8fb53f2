"""Exception types shared across the package."""


class SympwaveError(Exception):
    """Base class for all package-specific errors."""


class GammaPoleError(SympwaveError):
    """Log-gamma evaluated at a nonpositive integer."""


class DivergenceError(SympwaveError):
    """An integral required to be finite diverges."""


class UnsupportedOrderError(SympwaveError):
    """Derivative order beyond the supported cap."""


class OutOfRangeError(SympwaveError):
    """Argument outside the documented domain."""


class ResolutionError(SympwaveError):
    """A quadrature or spectral proxy did not resolve what it was asked for.

    Raised when a Chebyshev proxy is too coarse for the requested
    derivatives, and when a spherical function that must be real comes out
    of its quadrature with an imaginary part above tolerance.
    """


class NormalizationError(SympwaveError):
    """Vector expected to be normalized is not."""


class UsageError(SympwaveError):
    """Malformed sweep specification or CLI input."""
