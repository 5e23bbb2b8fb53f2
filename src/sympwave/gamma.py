"""Complex log-gamma, on ``scipy.special.loggamma``.

``log_gamma`` evaluates the Gindikin-Karpelevich product in
``CFunction.c_function`` at complex spectral parameters; the Plancherel
density at real ones is elementary and does not call it.  The result is the
log-gamma analytic off the negative real axis (not the principal log of
Gamma: its imaginary part is continuous, not wrapped to (-pi, pi]), whose
exponential is Gamma.  Its error sits at the conditioning floor
eps |log Gamma(z)|, also at |Im z| up to 1e6.
"""

from __future__ import annotations

import numpy as np
from scipy.special import loggamma

from .errors import GammaPoleError

_POLE_TOL = 1e-14


def log_gamma(z):
    """Log-gamma analytic off the negative real axis; exp(log_gamma(z)) = Gamma(z).

    Accepts scalars or arrays (real or complex); returns complex with the
    input shape.  Raises :class:`GammaPoleError` when any entry is within
    1e-14 of a nonpositive integer.
    """
    arr = np.asarray(z, dtype=complex)
    nearest = np.rint(arr.real)
    at_pole = (np.abs(arr - nearest) <= _POLE_TOL) & (nearest <= 0.0)
    if np.any(at_pole):
        raise GammaPoleError(f"log_gamma pole at z = {arr[at_pole].ravel()[0]}")
    out = loggamma(arr)
    return complex(out) if arr.ndim == 0 else out
