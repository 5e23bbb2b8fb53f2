"""Harish-Chandra c-function and Plancherel density.

The c-function is the Gindikin-Karpelevich product of gamma factors over the
reduced positive roots,

    c(lam) = c0 * prod_alpha 2^(-i y) Gamma(i y)
             / [ Gamma((m/2 + 1 + i y)/2) * Gamma((m/2 + m2 + i y)/2) ],

with y = <lam, alpha>/<alpha, alpha> and c0 normalized by c(-i rho) = 1.  At
-i rho every gamma argument is real and positive, so c0 comes from
``math.lgamma`` once per datum; ``c_function`` at complex lam sums the
complex ``log_gamma``.

For real lam the density |c|^-2 = |c0|^-2 prod_alpha F(y) needs no special
function (Helgason's product; Koornwinder's survey has the rank-one forms):
with |Gamma(iy)|^2 = pi / (y sinh pi y),

    F(y) = |Gamma(a1) Gamma(a2)|^2 / |Gamma(i y)|^2 = C v^p tanh(pi v)^q
           * prod_s (s^2 + v^2).

If m2 = 0, Legendre's duplication formula makes F a multiple of
|Gamma(m/2 + i y)|^2 / |Gamma(i y)|^2, with v = |y|: y^2 prod_{1<=j<m/2}
(j^2 + y^2) for even m, and y tanh(pi y) prod_{0<=j<(m-1)/2} ((j+1/2)^2 + y^2)
for odd m.  If m2 > 0 (m is even), v = |y|/2 and each gamma factor is
elementary on its own: |Gamma(k + iv)|^2 = (pi v / sinh pi v) prod_{1<=j<k}
(j^2 + v^2) and |Gamma(k + 1/2 + iv)|^2 = (pi / cosh pi v) prod_{0<=j<k}
((j+1/2)^2 + v^2), while 1/|Gamma(iy)|^2 = (4 v / pi) sinh pi v cosh pi v.
The sinh and cosh cancel into v^3 / tanh(pi v) (both real parts integers, as
for ch2), v tanh(pi v) (both half-integers) or v^2 (mixed), so nothing
overflows at large lam.  The constants C fold into |c0|^-2.

The density has a zero of order 2d at the origin and vanishes continuously
on the root hyperplanes, so quadratures downstream treat those as measure
zero and need no principal values; exact hyperplane hits return density 0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import GammaPoleError
from .gamma import _POLE_TOL, log_gamma
from .root_data import RootDatum, pairing


def _root_form(m: int, m2: int):
    """(log C, v / |y|, p, q, shifts s) of one root's factor F(y); see the module docstring."""
    if m2 == 0:
        log_c = (1.0 - 0.5 * m) * math.log(4.0) + math.log(math.pi)
        if m % 2 == 0:
            return log_c, 1.0, 2, 0, tuple(range(1, m // 2))
        return log_c, 1.0, 1, 1, tuple(j + 0.5 for j in range((m - 1) // 2))
    shifts, whole = [], 0
    for four_re in (m + 2, m + 2 * m2):  # 4 Re a1 and 4 Re a2, both even
        if four_re % 4 == 0:
            whole += 1
            shifts += range(1, four_re // 4)
        else:
            shifts += (j + 0.5 for j in range(four_re // 4))
    p, q = {2: (3, -1), 1: (2, 0), 0: (1, 1)}[whole]
    return math.log(4.0 * math.pi), 0.5, p, q, tuple(shifts)


class CFunction:
    """c-function of a root datum, normalized once at construction."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        # c0 from c(-i rho) = 1; at -i rho every gamma argument is real > 0.
        self.log_c0 = 0.0
        log_scale = 0.0
        self._forms = []
        for root in datum.reduced_roots:
            r = float(pairing(datum, datum.rho, root))
            m, m2 = root.m_alpha, root.m_2alpha
            self.log_c0 += (r * math.log(2.0) - math.lgamma(r)
                            + math.lgamma(0.5 * (0.5 * m + 1.0 + r))
                            + math.lgamma(0.5 * (0.5 * m + m2 + r)))
            log_c, *form = _root_form(m, m2)
            log_scale += log_c
            self._forms.append(form)
        self._scale = math.exp(log_scale - 2.0 * self.log_c0)

    def _factors(self, lam):
        """Per-root (iy, arg1, arg2) gamma arguments for a single lambda."""
        out = []
        for root in self.datum.reduced_roots:
            y = pairing(self.datum, lam, root)
            iy = 1j * y
            a1 = 0.5 * (0.5 * root.m_alpha + 1.0 + iy)
            a2 = 0.5 * (0.5 * root.m_alpha + root.m_2alpha + iy)
            out.append((iy, a1, a2))
        return out

    def _log_product(self, lam) -> complex:
        acc = 0.0 + 0.0j
        for iy, a1, a2 in self._factors(lam):
            acc += -iy * math.log(2.0) + log_gamma(iy)
            acc -= log_gamma(a1) + log_gamma(a2)
        return acc

    def c_function(self, lam) -> complex:
        """c(lam) for a real or complex spectral parameter.

        A pole of a numerator gamma factor (e.g. <lam, alpha> = 0 on a root
        hyperplane) makes c infinite; that is reported as complex infinity
        rather than an exception, so callers can treat |c|^-2 = 0.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        try:
            return cmath.exp(self.log_c0 + self._log_product(lam))
        except GammaPoleError:
            for iy, a1, a2 in self._factors(lam):
                for arg in (a1, a2):
                    if abs(arg - round(arg.real)) <= _POLE_TOL and round(arg.real) <= 0:
                        raise
            return complex(math.inf, 0.0)

    def density(self, lam):
        """Plancherel density |c(lam)|^-2 for real lam; 0 on root hyperplanes.

        Vectorized: lam may be a single vector of length rank, or an array of
        shape (..., rank); rank-one data also accept bare scalars.
        """
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0:
            lam = lam.reshape(1)
        if lam.shape[-1] != self.datum.rank:
            raise ValueError("lambda has wrong dimension")
        scalar = lam.ndim == 1

        base = lam.reshape(-1, self.datum.rank)
        out = np.full(base.shape[0], self._scale)
        dead = np.zeros(base.shape[0], dtype=bool)
        for root, (v_per_y, p, q, shifts) in zip(self.datum.reduced_roots, self._forms):
            y = np.abs(pairing(self.datum, base, root))
            dead |= y <= _POLE_TOL
            v = v_per_y * np.where(y <= _POLE_TOL, 1.0, y)  # placeholder off the pole
            v2 = v * v
            out *= v ** p
            if q:
                out *= np.tanh(np.pi * v) ** q
            for s in shifts:
                out *= s * s + v2
        out = np.where(dead, 0.0, out)
        out = out.reshape(lam.shape[:-1])
        return float(out) if scalar else out

    def vanishing_order(self) -> int:
        """Order of the zero of the density at lam = 0 (twice the root count)."""
        return 2 * self.datum.d
