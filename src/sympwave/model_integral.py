"""Oscillatory integrals over R^l with a radial oscillation and a symbol.

For a unit direction E and h >= 0, the object of study is

    I(h) = int_{R^l} Psi(|lam|) exp(i h <lam, E>) sigma(lam) dlam,

reduced in polar coordinates to the radial density

    xi(r, h) = r^(l-1) int_0^pi exp(i h r cos t) (sin t)^(l-2) D_r(t) dt,

where D_r averages the rotated symbol over the remaining l-2 angles.  The
endpoint stationary-phase expansion of xi (p = 2 at both poles of the
sphere) gives an exact decomposition xi = main + R0 + R1 + R2, with the
main term carrying the constant C_l = (2 pi)^((l-1)/2), and remainder
pieces built from the contour functions and from the u = B boundary data.

Phase convention: the boundary point Theta = +e1 has phase +h r, so the
main term pairs exp(+i h r) with sigma(r E) and exp(-i h r) with
sigma(-r E).  For Weyl-even symbols (every built-in) the two terms are
interchangeable; the exactness test below pins the convention.

Each sphere pole's boundary amplitudes, q in u and q1 in v = u^2, are
Chebyshev proxies times the fixed cutoff, held as one
:class:`~sympwave.stationary_phase.AmplitudeData`.  The remainder integrals
of both poles come from one call of
:func:`~sympwave.stationary_phase.remainder_integrals`, the routine
:func:`~sympwave.stationary_phase.expand` uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma as real_gamma

import numpy as np

from ._quad import (FilonPanels, cheb_fit, filon_chebyshev, gl_panels_nodes, gl_rule,
                    halfperiod_breaks, integrate_panels)
from .errors import DivergenceError, NormalizationError, UsageError
from .plancherel import CFunction
from .profiles import CutoffProduct, Profile, SmoothCutoff
from .stationary_phase import AmplitudeData, k_n_zero, remainder_integrals

_U_HI = 1.36          # proxy domain end, between sqrt(7/4) and the sqrt(2) singularity
_V_LO, _V_HI = 0.40, 1.85
_CUT = (1.5, 1.75)    # cutoff thresholds in v = u^2


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / real_gamma((k + 1) / 2.0)


def main_term_constant(l: int) -> float:
    """C_l = (2 pi)^((l-1)/2), fixed by the q^(l-2)(0) and S_(l-2) bookkeeping."""
    return (2.0 * math.pi) ** ((l - 1) / 2.0)


@dataclass(frozen=True)
class Symbol:
    """An amplitude on R^l with known vanishing order and growth exponent."""

    dimension: int
    eval: callable                 # maps (..., l) arrays to complex (...)
    vanishing_order: int
    growth_exponent: float
    label: str = ""


def gaussian_symbol(l: int) -> Symbol:
    return Symbol(l, lambda lam: np.exp(-np.sum(np.asarray(lam) ** 2, axis=-1)) + 0j,
                  vanishing_order=0, growth_exponent=0.0, label="gauss")


def quadratic_gaussian_symbol(l: int) -> Symbol:
    def f(lam):
        s = np.sum(np.asarray(lam) ** 2, axis=-1)
        return s * np.exp(-s) + 0j
    return Symbol(l, f, vanishing_order=2, growth_exponent=0.0, label="r2gauss")


def plancherel_symbol(cf: CFunction) -> Symbol:
    datum = cf.datum
    return Symbol(datum.rank, lambda lam: cf.density(lam) + 0j,
                  vanishing_order=2 * datum.d,
                  growth_exponent=float(datum.n - datum.rank),
                  label="plancherel")


def rotate_to_axis(E) -> np.ndarray:
    """Rotation J with J e1 = E (so J^-1 E = e1), built by orthonormalization."""
    E = np.asarray(E, dtype=float)
    l = E.shape[0]
    if abs(np.linalg.norm(E) - 1.0) > 1e-12:
        raise NormalizationError("direction E must be a unit vector")
    cols = [E]
    skip = int(np.argmax(np.abs(E)))
    for i in range(l):
        if i != skip:
            e = np.zeros(l)
            e[i] = 1.0
            cols.append(e)
    A = np.stack(cols, axis=1)
    Q, Rm = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(Rm))[None, :]
    return Q


# ---------------------------------------------------------------------------
# the partial spherical average D_r
# ---------------------------------------------------------------------------

def _sphere_rule(l: int, refine: int = 0):
    """Points and weights on S^(l-2) (the last l-1 coordinates of Theta).

    Total weight is the surface area S_(l-2); for l = 2 the sphere is the
    two-point set {+1, -1}.
    """
    if l == 2:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    nphi = 64 << refine
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = np.full(nphi, 2.0 * np.pi / nphi)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    w = wphi
    for j in range(l - 3):
        # prepend a polar angle with its sin-power weight
        ng = 32 << refine
        x, gw = gl_rule(ng)
        th = 0.5 * np.pi * (x + 1.0)
        wth = 0.5 * np.pi * gw * np.sin(th) ** (pts.shape[-1] - 1)
        new_pts = np.concatenate(
            [np.broadcast_to(np.cos(th)[:, None, None], (ng, len(pts), 1)),
             np.sin(th)[:, None, None] * pts[None, :, :]], axis=-1)
        pts = new_pts.reshape(-1, new_pts.shape[-1])
        w = (wth[:, None] * w[None, :]).ravel()
    return pts, w


def d_r(symbol: Symbol, rotation: np.ndarray, r: float, theta1, refine: int = 0):
    """Average of the rotated symbol over the sphere slice at colatitude theta1.

    Vectorized over theta1.  For l = 2 this folds the circle onto [0, pi]
    by summing the two branches (cos t, +/- sin t).
    """
    l = symbol.dimension
    if l < 2:
        raise UsageError("the sphere average needs rank >= 2; use the rank-one path")
    th = np.atleast_1d(np.asarray(theta1, dtype=float))
    pts, w = _sphere_rule(l, refine)
    theta_dir = np.concatenate(
        [np.cos(th)[:, None, None] * np.ones((1, len(pts), 1)),
         np.sin(th)[:, None, None] * pts[None, :, :]], axis=-1)   # (nt, np, l)
    lam = r * theta_dir @ rotation.T
    vals = symbol.eval(lam)
    out = vals @ w
    return out if np.ndim(theta1) else complex(out[0])


class _DrTable:
    """D_r with spherical refinement fixed by a convergence check at theta = 0.3."""

    def __init__(self, symbol, rotation, r):
        self.symbol, self.rotation, self.r = symbol, rotation, r
        self.refine = 0
        if symbol.dimension > 2:
            probe = np.array([0.3, 1.1, 2.4])
            prev = d_r(symbol, rotation, r, probe, refine=0)
            while self.refine < 4:
                cur = d_r(symbol, rotation, r, probe, refine=self.refine + 1)
                if np.max(np.abs(cur - prev)) <= 1e-11 * (np.max(np.abs(cur)) + 1e-300):
                    break
                self.refine += 1
                prev = cur

    def __call__(self, theta1):
        return d_r(self.symbol, self.rotation, self.r, theta1, refine=self.refine)


# ---------------------------------------------------------------------------
# xi by direct oscillatory quadrature
# ---------------------------------------------------------------------------

def xi_direct(symbol: Symbol, E, r: float, h: float) -> complex:
    """Radial density xi(r, h) by quadrature of the colatitude integral.

    At l = 2 the integrand is one :func:`~sympwave._quad.cheb_fit` proxy in
    c = cos t, integrated exactly against e^(i h r c) (1-c^2)^(-1/2) by
    :func:`~sympwave._quad.filon_chebyshev`; a symbol it cannot resolve by
    degree 4096 raises :class:`~sympwave.errors.ResolutionError`.
    """
    if r <= 0.0 or h < 0.0:
        raise UsageError("need r > 0 and h >= 0")
    l = symbol.dimension
    J = rotate_to_axis(E)
    dr = _DrTable(symbol, J, r)
    mu = h * r

    if l == 2:
        # int_0^pi e^{i mu cos t} D(t) dt = int_{-1}^{1} e^{i mu c} D(arccos c) / sqrt(1-c^2) dc
        series = cheb_fit(lambda c: dr(np.arccos(c)), (-1.0, 1.0), "xi_direct")
        return r ** (l - 1) * filon_chebyshev(series, mu)

    if l == 3:
        fil = FilonPanels(lambda c: dr(np.arccos(np.clip(c, -1.0, 1.0))),
                          -1.0, 1.0, n_panels=8, warn_label="xi_direct")
        return r ** (l - 1) * fil.integrate(mu)

    # generic rank: colatitude panels at half-periods of mu cos(t)
    n = max(8, int(np.ceil(2.0 * mu / np.pi)))
    cvals = np.linspace(1.0, -1.0, n + 1)
    breaks = np.arccos(cvals)
    def f(ts):
        return np.exp(1j * mu * np.cos(ts)) * np.sin(ts) ** (l - 2) * dr(ts)
    return r ** (l - 1) * integrate_panels(f, breaks, order0=16, tol=1e-10,
                                           warn_label="xi_direct")


# ---------------------------------------------------------------------------
# the pole amplitudes with Chebyshev proxies and the fixed cutoff
# ---------------------------------------------------------------------------

class QFamily:
    """Boundary amplitudes of the colatitude phase (p = 2) at both sphere poles.

    ``amps`` holds one :class:`~sympwave.stationary_phase.AmplitudeData` per
    pole, (q, q1) for Theta = +e1 and (q~, q~1) for its mirror, with B = 1;
    ``proxy_u`` is the proxy of q.  The analytic parts are proxied away from
    the sqrt(2) endpoint singularity by :func:`~sympwave._quad.cheb_fit`,
    each at the degree it needs, which grows with r for the Plancherel
    densities; the compact support comes from the fixed
    smooth cutoff in v = u^2 equal to 1 below 3/2 and 0 above 7/4, applied
    through exact Taylor jets so that derivatives of the extended functions
    stay accurate to spectral precision.
    """

    def __init__(self, symbol: Symbol, E, r: float):
        l = symbol.dimension
        if l < 2:
            raise UsageError("q family needs rank >= 2")
        dr = _DrTable(symbol, rotate_to_axis(E), r)

        def a_u(us, mirror):
            us = np.atleast_1d(us)
            th = np.arccos(np.clip(1.0 - us**2, -1.0, 1.0))
            th = np.pi - th if mirror else th
            vals = dr(th)
            base = 2.0 * us ** (l - 2) * (2.0 - us**2) ** ((l - 3) / 2.0)
            return base * (vals if mirror else np.conj(vals))

        def a_v(vs, mirror):
            vs = np.atleast_1d(vs)
            th = np.arccos(np.clip(1.0 - vs, -1.0, 1.0))
            th = np.pi - th if mirror else th
            vals = dr(th)
            pv = 2.0 * (2.0 * vs - vs**2) ** ((l - 3) / 2.0)
            return pv * (vals if mirror else np.conj(vals))

        self.proxy_u = cheb_fit(lambda u: a_u(u, False), (0.0, _U_HI), "q proxy, pole +e1")
        proxy_ut = cheb_fit(lambda u: a_u(u, True), (0.0, _U_HI), "q proxy, pole -e1")
        proxy_v = cheb_fit(lambda v: a_v(v, False), (_V_LO, _V_HI), "q1 proxy, pole +e1")
        proxy_vt = cheb_fit(lambda v: a_v(v, True), (_V_LO, _V_HI), "q1 proxy, pole -e1")
        cutoff = SmoothCutoff(*_CUT)
        self.amps = tuple(
            AmplitudeData(B=1.0, q=CutoffProduct(pu, cutoff, 2, 0.0, _U_HI),
                          q1=CutoffProduct(pv, cutoff, 1, _V_LO, _V_HI), p=2)
            for pu, pv in ((self.proxy_u, proxy_v), (proxy_ut, proxy_vt)))


# ---------------------------------------------------------------------------
# the exact decomposition
# ---------------------------------------------------------------------------

@dataclass
class XiDecomposition:
    direct: complex
    main: complex
    R0: complex
    R1: complex
    R2: complex

    @property
    def remainder(self) -> complex:
        return self.R0 + self.R1 + self.R2


def check_decomposition(r: float, M: int | None):
    """Raise UsageError unless r > 0 and M is None or >= 0: the limits of
    :func:`xi_decompose` that do not depend on h."""
    if not (r > 0.0 and (M is None or M >= 0)):
        raise UsageError(f"decomposition needs r > 0 and M >= 0, got r = {r} and M = {M}")


def xi_decompose(symbol: Symbol, E, r: float, h: float,
                 M: int | None = None) -> XiDecomposition:
    """Decompose xi(r, h) into main term plus the three remainder pieces.

    M defaults to floor((l+1)/2).  The pieces satisfy
    direct = main + R0 + R1 + R2 up to quadrature accuracy for every h r > 0;
    the u = B boundary series cancels identically between the two sphere
    poles and is therefore absent.
    """
    l = symbol.dimension
    if M is None:
        M = (l + 1) // 2
    check_decomposition(r, M)
    if h <= 0.0:
        raise UsageError("decomposition needs h > 0")
    x = h * r
    fam = QFamily(symbol, E, r)
    E = np.asarray(E, dtype=float)

    direct = xi_direct(symbol, E, r, h)

    rpow = r ** (l - 1)
    sig_p = complex(np.asarray(symbol.eval((r * E)[None, :]))[0])
    sig_m = complex(np.asarray(symbol.eval((-r * E)[None, :]))[0])
    quarter = 1j * np.pi * (1.0 - l) / 4.0
    main = main_term_constant(l) * (
        np.exp(1j * x + quarter) * sig_p + np.exp(-1j * x - quarter) * sig_m
    ) * (r * h) ** ((1.0 - l) / 2.0) * rpow

    sgn = (-1.0) ** l
    kl0 = k_n_zero(l, x, 2)
    qd, qtd = (a.q.proxy_deriv(l - 1)(0.0) for a in fam.amps)
    R0 = sgn * (np.exp(1j * x) * np.conj(qd * kl0) + np.exp(-1j * x) * qtd * kl0) * rpow

    # the pole +e1 enters conjugated: its R2 integral at frequency -x is the
    # conjugate of the one at +x, and the mirror pole's at +x is used as is
    (int_q, int_qt), (r2_q, r2_qt) = remainder_integrals(fam.amps, l, M, x)
    R1 = sgn * (np.exp(1j * x) * np.conj(int_q) + np.exp(-1j * x) * int_qt) * rpow
    term_q = (-1.0) ** M * np.exp(1j * x) * np.conj(r2_q)
    term_qt = np.exp(-1j * x) * r2_qt
    R2 = -0.5 * (1j**M / x**M) * (term_q + term_qt) * rpow

    return XiDecomposition(direct=complex(direct), main=complex(main),
                           R0=complex(R0), R1=complex(R1), R2=complex(R2))


# ---------------------------------------------------------------------------
# the Psi-weighted integral over R^l
# ---------------------------------------------------------------------------

def i_psi(symbol: Symbol, profile: Profile, t_phase: float, E, h: float):
    """Direct value and main term of the Psi-weighted integral.

    Psi(r) = exp(i t_phase r) psi(r).  Returns (direct, main) where direct
    integrates Psi against xi(r, h) radially (evaluated with the radial
    integral innermost so arbitrary frequencies stay cheap) and main is the
    stationary boundary contribution with constant C_l h^((1-l)/2).
    """
    l = symbol.dimension
    n_eff = symbol.growth_exponent + l
    s_needed = n_eff + l / 2.0 - 2.0
    if not profile.constant_finite(0, max(0.0, s_needed)):
        raise DivergenceError(
            f"profile constant (k=0, s={s_needed:.3g}) diverges; the integral is undefined")
    if h < 0.0:
        raise UsageError("h must be nonnegative")

    J = rotate_to_axis(E)
    E = np.asarray(E, dtype=float)
    rmax = profile.truncation_radius(1e-14)

    # main term: two linear-phase radial integrals at frequencies t +/- h;
    # for even l the weight r^((l-1)/2) has a branch point at 0, handled by
    # a short r = w^2 cap with half-period panels before the Filon tail
    def smooth_amp(sign):
        def amp(rs):
            rs = np.atleast_1d(rs)
            lam = (sign * rs)[:, None] * E[None, :]
            return profile.eval(0, rs) * np.asarray(symbol.eval(lam))
        return amp

    def radial_main(sign, freq):
        amp = smooth_amp(sign)
        power = (l - 1) / 2.0
        if l % 2 == 1:
            fil = FilonPanels(lambda rs: amp(rs) * np.atleast_1d(rs) ** power,
                              0.0, rmax, n_panels=32, warn_label="i_psi main")
            return fil.integrate(freq)
        r1 = min(1.0, rmax / 8.0)
        wb = halfperiod_breaks(abs(freq) * r1, 0.0, math.sqrt(r1))
        cap = integrate_panels(
            lambda ws: 2.0 * ws ** (2.0 * power + 1.0) * amp(ws**2)
            * np.exp(1j * freq * ws**2),
            np.unique(np.concatenate([wb, np.linspace(0.0, math.sqrt(r1), 9)])),
            order0=16, tol=1e-11, warn_label="i_psi main cap")
        fil = FilonPanels(lambda rs: amp(rs) * np.atleast_1d(rs) ** power,
                          r1, rmax, n_panels=32, warn_label="i_psi main tail")
        return cap + fil.integrate(freq)

    quarter = 1j * np.pi * (1.0 - l) / 4.0
    main = main_term_constant(l) * h ** ((1.0 - l) / 2.0) * (
        np.exp(quarter) * radial_main(+1, t_phase + h)
        + np.exp(-quarter) * radial_main(-1, t_phase - h)
    )

    # direct: colatitude outside, radial Filon inside
    pts, w = _sphere_rule(l, refine=1 if l <= 3 else 0)
    nodes_t, nodes_w = _colatitude_rule(l, t_phase, h)
    ct, st = np.cos(nodes_t), np.sin(nodes_t)
    freqs = t_phase + h * ct

    theta_dir = np.concatenate(
        [ct[:, None, None] * np.ones((1, len(pts), 1)),
         st[:, None, None] * pts[None, :, :]], axis=-1)      # (nt, np, l)

    vals = np.zeros((len(nodes_t), len(pts)), dtype=complex)
    for ip in range(len(pts)):
        lam_dirs = theta_dir[:, ip, :] @ J.T                     # (nt, l)
        def amp(rs, dirs=lam_dirs):
            rs = np.atleast_1d(rs)
            lam = rs[None, :, None] * dirs[:, None, :]
            return (profile.eval(0, rs)[None, :] * rs[None, :] ** (l - 1)
                    * np.asarray(symbol.eval(lam)))
        # one row per colatitude node, each at its own frequency
        fil = FilonPanels(amp, 0.0, rmax, n_panels=24, warn_label="i_psi direct")
        vals[:, ip] = fil.integrate(freqs)
    weighted = (vals @ w) * st ** (l - 2)
    direct = np.sum(nodes_w * weighted)
    return complex(direct), complex(main)


def _colatitude_rule(l: int, t_phase: float, h: float):
    """GL panels on [0, pi] refined where |t + h cos(theta)| is small."""
    cuts = {0.0, np.pi}
    if h > 0.0:
        for level in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
            for sgn in (-1.0, 1.0):
                c = (sgn * level - t_phase) / h
                if -1.0 < c < 1.0:
                    cuts.add(float(np.arccos(c)))
    base = np.linspace(0.0, np.pi, 17)
    breaks = np.unique(np.concatenate([np.array(sorted(cuts)), base]))
    return gl_panels_nodes(breaks, 16)
