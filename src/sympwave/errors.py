"""Exception types shared across the package.  Each class carries the CLI's
exit code and the label that prefixes its message on stderr."""


class SympwaveError(Exception):
    """Base class for all package-specific errors."""
    label, exit_code = "numeric error", 3


class UsageError(SympwaveError):
    """Malformed sweep specification or CLI input."""
    label, exit_code = "usage error", 2


class OutOfRangeError(UsageError):
    """Argument outside the documented domain."""


class NormalizationError(UsageError):
    """Vector expected to be normalized is not."""


class UnsupportedOrderError(UsageError):
    """Derivative order beyond the supported cap."""


class DivergenceError(SympwaveError):
    """An integral required to be finite diverges."""
    label = "divergence"


class GammaPoleError(DivergenceError):
    """Log-gamma evaluated at a nonpositive integer."""


class ResolutionError(SympwaveError):
    """A quadrature or spectral proxy did not resolve what it was asked for.

    Raised when a Chebyshev fit does not resolve its function by degree
    4096 (``_quad.cheb_fit``), when a spherical function that must be real
    comes out of its quadrature with an imaginary part above tolerance
    (``wave_kernel._phi``), when phi's endpoint caps would need more than
    2^19 panels (``wave_kernel._cap_breaks``), when a profile transform
    would need more Filon nodes than its fixed budget
    (``wave_kernel._transform_table``), when an R1 remainder integral would
    need more panels than its cap (``stationary_phase.remainder_integrals``),
    and when the sphere rule's next level would pass 2^19 points
    (``model_integral._sphere_level``).
    """
