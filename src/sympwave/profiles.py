"""Decay profiles psi with closed-form derivatives and integral constants.

Three families:

* ``exponential(beta)``: psi(r) = exp(-beta r)
* ``rational(beta)``:    psi(r) = (1 + r^2)^(-beta/2)
* ``bump(R0)``:          smooth, identically 1 on [0, R0], 0 on [2 R0, inf)

Derivatives are exact for every order k <= 12.  The exponential family is
closed form; the rational family uses the polynomial recurrence

    P_{k+1} = (1 + r^2) P_k' - (beta + 2k) r P_k,   psi^(k) = P_k (1+r^2)^(-beta/2-k);

the bump transition is the standard partition-of-unity quotient
sigma(s)/(sigma(s)+sigma(1-s)) with sigma(s) = exp(-1/s), differentiated by
truncated-Taylor (jet) arithmetic.  The same :class:`SmoothCutoff` supplies
the mollifier used to extend stationary-phase amplitudes: every such
extension is a :class:`CutoffProduct`, a Chebyshev proxy times the cutoff
at x**p, whose derivatives come from one Leibniz sum over jets computed for
a whole node array at once.  :func:`cutoff_product_derivs` differentiates
several products that share the cutoff at once: one live mask, one cutoff
jet, and per block of nodes one Chebyshev-Vandermonde matrix times the
stacked coefficients of every proxy derivative of every product, in place
of one Clenshaw recurrence per proxy derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.chebyshev import Chebyshev

from ._jets import (jet_compose, jet_derivatives, jet_div, jet_exp, jet_neg_recip,
                    jet_powi)
from ._quad import build_once, cheb_series_blocks
from .errors import DivergenceError, UnsupportedOrderError, UsageError

MAX_ORDER = 12


class SmoothCutoff:
    """C-infinity step equal to 1 on (-inf, lo] and 0 on [hi, inf)."""

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise UsageError("cutoff needs lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = self.hi - self.lo

    def jet(self, x, order: int) -> np.ndarray:
        """Taylor coefficients of the cutoff at x, in the x variable.

        Vectorized: the result has shape ``(order + 1,) + np.shape(x)``.
        """
        x = np.asarray(x, dtype=float)
        s = ((x - self.lo) / self.width).reshape(-1)
        c = np.zeros((order + 1, s.size))
        c[0] = s <= 0.0
        inner = (s > 0.0) & (s < 1.0)
        if np.any(inner):
            si = s[inner]
            e1 = jet_exp(jet_neg_recip(si, order))
            # jet of -1/(1-s) in the s variable
            j = np.arange(order + 1)[:, None]
            e2 = jet_exp(-1.0 / (1.0 - si) ** (j + 1))
            c[:, inner] = jet_div(e2, e1 + e2) / self.width**j
        return c.reshape((order + 1,) + x.shape)

    def eval(self, k: int, x):
        """k-th derivative, vectorized over x."""
        out = jet_derivatives(self.jet(x, k))[k]
        return out if out.ndim else float(out)


class CutoffProduct:
    """proxy(x) * cutoff(x**p) on the live interval [lo, hi], zero outside.

    Derivatives are exact up to rounding: the Leibniz rule combines the
    derivatives of the Chebyshev ``proxy`` with the cutoff's Taylor jets,
    composed with x -> x**p, over a whole array of nodes at once; see
    :func:`cutoff_product_derivs`, which :meth:`deriv` calls for one product.
    """

    def __init__(self, proxy: Chebyshev, cutoff: SmoothCutoff, p: int, lo: float, hi: float):
        self.proxy, self.cutoff, self.p = proxy, cutoff, p
        self.lo, self.hi = float(lo), float(hi)
        # proxy_deriv(j): the j-th derivative of the proxy, built once per order
        self.proxy_deriv = build_once(maxsize=None, shared=False)(proxy.deriv)

    def __call__(self, x):
        out = self.deriv(0, x)
        return out if np.ndim(x) else complex(out[0])

    def deriv(self, k: int, x) -> np.ndarray:
        """k-th derivative at each x, as a complex array of ``np.atleast_1d(x)``'s shape."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cutoff_product_derivs((self,), k, x.ravel())[0].reshape(x.shape)


def cutoff_product_derivs(prods, k: int, x) -> np.ndarray:
    """k-th derivative of every product of ``prods`` at the nodes ``x``.

    The products must share the cutoff, p, the live interval and the proxy
    domain; they then share the live mask, one cutoff jet and, per block of
    nodes, one Chebyshev-Vandermonde product that gives the proxy
    derivatives of orders 0..k of every product at once
    (:func:`~sympwave._quad.cheb_series_blocks`).  Returns a complex array of
    shape ``(len(prods), len(x))`` for a 1-D ``x``; a node's values do not
    depend on the other nodes.
    """
    if k < 0:
        raise UsageError(f"derivative order must be >= 0, got {k}")
    first = prods[0]
    cutoff, p = first.cutoff, first.p
    key = (cutoff.lo, cutoff.hi, p, first.lo, first.hi)
    if any((c.cutoff.lo, c.cutoff.hi, c.p, c.lo, c.hi) != key
           or not np.array_equal(c.proxy.domain, first.proxy.domain) for c in prods):
        raise UsageError("cutoff products evaluated together must share the cutoff, "
                         "p, the live interval and the proxy domain")
    x = np.asarray(x, dtype=float)
    out = np.zeros((len(prods), len(x)), dtype=complex)
    live = (x >= first.lo) & (x <= first.hi)
    # quadrature nodes are usually all live: then no index array and no copy
    live = None if live.all() else np.flatnonzero(live)
    xl = x if live is None else x[live]
    v = xl**p
    # rows 0..k of derivatives of cutoff(x**p): constant off the transition
    cut = np.zeros((k + 1, len(xl)))
    cut[0] = v <= cutoff.lo
    trans = (v > cutoff.lo) & (v < cutoff.hi)
    cut[:, trans] = jet_derivatives(jet_compose(cutoff.jet(v[trans], k),
                                                jet_powi(xl[trans], p, k)))
    series = [c.proxy_deriv(j) for c in prods for j in range(k + 1)]
    weights = [math.comb(k, j) for j in range(k + 1)]
    for block, vals in cheb_series_blocks(series, xl):
        vals = vals.reshape(len(vals), len(prods), k + 1)
        acc = np.zeros((len(prods), len(vals)), dtype=complex)
        for j in range(k + 1):
            acc += weights[j] * vals[:, :, j].T * cut[k - j, block]
        out[:, block if live is None else live[block]] = acc
    return out


@dataclass(frozen=True)
class Profile:
    """A decay profile with derivatives up to order 12."""

    family: str
    param: float

    def __post_init__(self):
        if self.family not in ("exponential", "rational", "bump"):
            raise UsageError(f"unknown profile family {self.family!r}")
        if not (math.isfinite(self.param) and self.param > 0.0):
            raise UsageError("profile parameter must be positive and finite")

    # -- helpers -----------------------------------------------------------

    def _rational_polys(self, upto: int):
        polys = [Polynomial([1.0])]
        beta = self.param
        for k in range(upto):
            p = polys[-1]
            polys.append(Polynomial([1.0, 0.0, 1.0]) * p.deriv() - (beta + 2 * k) * Polynomial([0.0, 1.0]) * p)
        return polys

    def _bump_cutoff(self) -> SmoothCutoff:
        return SmoothCutoff(self.param, 2.0 * self.param)

    # -- operations --------------------------------------------------------

    def eval(self, k: int, r):
        """Exact k-th derivative of psi at r >= 0 (vectorized)."""
        if not 0 <= k <= MAX_ORDER:
            raise UnsupportedOrderError(f"derivative order {k} > {MAX_ORDER}")
        r = np.asarray(r, dtype=float)
        if self.family == "exponential":
            out = (-self.param) ** k * np.exp(-self.param * r)
        elif self.family == "rational":
            poly = self._rational_polys(k)[k]
            out = poly(r) * (1.0 + r * r) ** (-self.param / 2.0 - k)
        else:
            out = self._bump_cutoff().eval(k, r)
        return out if np.ndim(out) else float(out)

    def constant_C(self, k: int, s: float) -> float:
        """Integral of |psi^(k)(r)| (r+1)^s over [0, inf), to ~1e-9 relative."""
        # imported here, as every scipy function is: import sympwave loads no scipy
        from scipy.integrate import quad

        if not 0 <= k <= MAX_ORDER:
            raise UnsupportedOrderError(f"derivative order {k} > {MAX_ORDER}")
        if not self.constant_finite(k, s):
            raise DivergenceError(
                f"C integral diverges for {self.family}({self.param}) at (k={k}, s={s})"
            )

        def f(r):
            return abs(self.eval(k, r)) * (r + 1.0) ** s

        if self.family == "exponential":
            val, _ = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
            return val
        if self.family == "rational":
            roots = self._rational_polys(k)[k].roots()
            kinks = sorted(float(x.real) for x in roots if abs(x.imag) < 1e-12 and x.real > 0)
            hi = (kinks[-1] if kinks else 1.0) + 10.0
            head, _ = quad(f, 0.0, hi, epsabs=0.0, epsrel=1e-11, limit=400, points=kinks or None)
            tail, _ = quad(f, hi, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
            return head + tail
        lo = 0.0 if k == 0 else self.param
        val, _ = quad(f, lo, 2.0 * self.param, epsabs=0.0, epsrel=1e-10, limit=400)
        return val

    def constant_finite(self, k: int, s: float) -> bool:
        """Whether the (k, s) constant integral converges."""
        if self.family == "rational":
            # psi^(k) ~ r^(-beta-k) at infinity
            return s < self.param + k - 1.0
        return True

    def truncation_radius(self, eps: float) -> float:
        """Radius beyond which |psi| stays below eps."""
        if self.family == "exponential":
            return math.log(1.0 / eps) / self.param
        if self.family == "rational":
            return (eps ** (-2.0 / self.param) - 1.0) ** 0.5 if eps < 1.0 else 0.0
        return 2.0 * self.param


def tail_radius(profile: Profile, power: float, eps: float) -> float:
    """Radius where |psi(r)| (1 + r)^power stays below eps."""
    r = max(1.0, profile.truncation_radius(eps))
    for _ in range(200):
        if profile.eval(0, r) * (1.0 + r) ** power < eps:
            return r
        r *= 1.1
    return r


def parse_profile(text: str) -> Profile:
    """Parse the CLI syntax ``exp:1.0 | rational:6.0 | bump:2.0``."""
    try:
        name, raw = text.split(":", 1)
        value = float(raw)
    except ValueError as exc:
        raise UsageError(f"bad profile spec {text!r} (want family:param)") from exc
    family = {"exp": "exponential", "rational": "rational", "bump": "bump"}.get(name)
    if family is None:
        raise UsageError(f"unknown profile family {name!r} in {text!r}")
    return Profile(family, value)
