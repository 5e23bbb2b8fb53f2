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


class NormalizationError(SympwaveError):
    """Vector expected to be normalized is not."""


class UsageError(SympwaveError):
    """Malformed sweep specification or CLI input."""
