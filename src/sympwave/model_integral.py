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

D_r and :func:`i_psi` sum the symbol over S^(l-2) by one sphere rule: level
k takes 8 2^k azimuths and 4 2^k Gauss-Legendre nodes per polar angle (S^0
is +1 and -1).  One probe keeps the first level whose sums at three colatitudes
agree with the next level's to 1e-11, and raises ResolutionError past 2^19 points.
Every read of D_r is a call of :func:`d_r`, which runs the probe once per
(symbol, rotation, r) and keeps the level for the 16 latest keys.

Each sphere pole's boundary amplitude is extended by
:func:`~sympwave.stationary_phase.extend_amplitude`, and the remainder
integrals of both poles come from one call of
:func:`~sympwave.stationary_phase.remainder_integrals`: the rules that
:func:`~sympwave.stationary_phase.expand` uses too.

A sweep over h at fixed r changes only the frequency x = h r.  So the parts
that do not depend on h are built once per (symbol, E, r), each kept by
:func:`~sympwave._quad.build_once` for the 16 latest keys: the direct
integrator (a Chebyshev proxy for even l, Filon panels for odd l) and the
:class:`QFamily`, whose pole amplitudes get one R2 Filon build per M; both
read D_r by :func:`d_r`.  Each is built when first needed, so
:func:`xi_direct` alone never builds the q family, and an error is raised
again on every call.  Per h there remain the moments of the direct integral
at h r, R1's panels against k_n, R2's moments at h r and the closed-form
main and R0 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma as real_gamma

import numpy as np

from ._quad import (FilonPanels, build_once, cheb_fit, filon_chebyshev, gl_panels, gl_rule,
                    halfperiod_breaks, integrate_panels)
from .errors import DivergenceError, NormalizationError, ResolutionError, UsageError
from .plancherel import CFunction
from .profiles import Profile, tail_radius
from .stationary_phase import extend_amplitude, k_n_zero, remainder_integrals


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
    if abs(np.linalg.norm(E) - 1.0) > 1e-12:
        raise NormalizationError("direction E must be a unit vector")
    # E, then the unit vectors but the one along E's largest entry
    A = np.column_stack([E, np.delete(np.eye(len(E)), int(np.argmax(np.abs(E))), axis=1)])
    Q, Rm = np.linalg.qr(A)
    return Q * np.sign(np.diag(Rm))[None, :]


# ---------------------------------------------------------------------------
# the partial spherical average D_r
# ---------------------------------------------------------------------------

# the most points a level may have (level 16 at l = 3, 4 at l = 5): D_r
# there takes 10^8 symbol points a Filon fit, some 8 s on two cores
_SPHERE_BUDGET = 1 << 19
# symbol points per block of a sphere sum, or one pair's level if that is
# more, so that its memory does not grow with the number of (r, theta) pairs
_SPHERE_BLOCK = 1 << 16
_PROBE_THETA = np.array([0.3, 1.1, 2.4])


def _sphere_rule(l: int, level: int):
    """Points and weights of the sphere rule on S^(l-2) (the last l-1
    coordinates of Theta) at ``level``; see the module docstring."""
    if l == 2:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phi = 2.0 * np.pi * np.arange(8 << level) / (8 << level)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    w = np.full(len(phi), 2.0 * np.pi / len(phi))
    for _ in range(l - 3):
        # prepend a polar angle with its sin-power weight
        x, gw = gl_rule(4 << level)
        th = 0.5 * np.pi * (x + 1.0)
        wth = 0.5 * np.pi * gw * np.sin(th) ** (pts.shape[-1] - 1)
        pts = np.concatenate([np.cos(th)[:, None, None] * np.ones((1, len(pts), 1)),
                              np.sin(th)[:, None, None] * pts], axis=-1)
        pts, w = pts.reshape(-1, pts.shape[-1]), (wth[:, None] * w).ravel()
    return pts, w


def _sphere_sum(symbol: Symbol, rotation: np.ndarray, r, theta1, level: int):
    """sum_j w_j sigma(r J (cos theta1, sin theta1 p_j)) over the sphere rule at ``level``,
    for r and theta1 broadcast together, in blocks of ``_SPHERE_BLOCK`` symbol points."""
    l = symbol.dimension
    pts, w = _sphere_rule(l, level)
    th, r = np.broadcast_arrays(np.asarray(theta1, dtype=float), np.asarray(r, dtype=float))
    cos, sin, rs = (np.ravel(a)[:, None, None] for a in (np.cos(th), np.sin(th), r))
    rows = max(1, _SPHERE_BLOCK // len(w))

    def block(i):
        theta_dir = np.concatenate([cos[i:i + rows] * np.ones((1, len(w), 1)),
                                    sin[i:i + rows] * pts], axis=-1)
        # one 2-d product for the block: each lam keeps the bits of a product per point
        lam = (rs[i:i + rows] * theta_dir).reshape(-1, l) @ rotation.T
        return np.asarray(symbol.eval(lam)).reshape(-1, len(w)) @ w

    blocks = [block(i) for i in range(0, len(rs), rows)]
    return (np.concatenate(blocks) if blocks else np.empty(0, dtype=complex)).reshape(r.shape)


def _sphere_level(symbol: Symbol, rotation: np.ndarray, r, weight=1.0) -> int:
    """The probe's level for ``symbol``: the first whose ``weight`` times
    sphere sums at ``_PROBE_THETA`` (r and weight may add a leading axis of
    radii) agree with the next level's to 1e-11 relative."""
    l = symbol.dimension
    if l < 2:
        raise UsageError("the sphere average needs rank >= 2; use the rank-one path")
    if l == 2:
        return 0
    level, change = 0, math.inf
    prev = weight * _sphere_sum(symbol, rotation, r, _PROBE_THETA, 0)
    while (8 << level + 1) * (4 << level + 1) ** (l - 3) <= _SPHERE_BUDGET:
        cur = weight * _sphere_sum(symbol, rotation, r, _PROBE_THETA, level + 1)
        change = np.max(np.abs(cur - prev)) / (np.max(np.abs(cur)) + 1e-300)
        if change <= 1e-11:
            return level
        level, prev = level + 1, cur
    raise ResolutionError(f"sphere rule at rank {l}: level {level} moves by {change:.2e}, and "
                          f"level {level + 1} would pass the budget of {_SPHERE_BUDGET} points")


@build_once(maxsize=16)
def _dr_level(symbol: Symbol, rotation_bytes: bytes, r: float) -> int:
    """The probe's level for D_r of (symbol, rotation, r)."""
    l = symbol.dimension
    return _sphere_level(symbol, np.frombuffer(rotation_bytes).reshape(l, l), r)


def d_r(symbol: Symbol, rotation: np.ndarray, r: float, theta1):
    """Average of the rotated symbol over the sphere slice at colatitude theta1.

    Vectorized over theta1.  For l = 2 this folds the circle onto [0, pi]
    by summing the two branches (cos t, +/- sin t); for l >= 3 it sums the
    module's one sphere rule at the probe's level, which is found once per
    (symbol, rotation's bits, r) and kept for the 16 latest keys.
    """
    level = _dr_level(symbol, np.asarray(rotation, dtype=float).tobytes(), float(r))
    out = _sphere_sum(symbol, rotation, r, theta1, level)
    return out if np.ndim(theta1) else complex(out)


# ---------------------------------------------------------------------------
# the parts of xi that do not depend on h, kept per (symbol, E's bits, r)
# ---------------------------------------------------------------------------

def _parts_key(symbol: Symbol, E, r: float):
    return symbol, np.asarray(E, dtype=float).tobytes(), float(r)


@build_once(maxsize=16)
def _direct_integral(symbol: Symbol, E_bytes: bytes, r: float):
    """x -> the integral of :func:`xi_direct` at h r = x, from a proxy (even l)
    or Filon panels (odd l) of its amplitude."""
    l, J = symbol.dimension, rotate_to_axis(np.frombuffer(E_bytes))

    def amp(c):
        theta = np.arccos(np.clip(c, -1.0, 1.0))
        return (1.0 - c * c) ** ((l - 2) // 2) * d_r(symbol, J, r, theta)

    if l % 2 == 0:
        proxy = cheb_fit(amp, (-1.0, 1.0), "xi_direct")
        return lambda x: filon_chebyshev(proxy, x)
    panels = FilonPanels(amp, np.linspace(-1.0, 1.0, 9), warn_label="xi_direct")
    return lambda x: panels.integrate(x)


@build_once(maxsize=16)
def _q_family(symbol: Symbol, E_bytes: bytes, r: float) -> QFamily:
    return QFamily(symbol, np.frombuffer(E_bytes), r)


# ---------------------------------------------------------------------------
# xi by direct oscillatory quadrature
# ---------------------------------------------------------------------------

def xi_direct(symbol: Symbol, E, r: float, h: float) -> complex:
    """Radial density xi(r, h) by quadrature of the colatitude integral.

    With c = cos t the integral is int_{-1}^1 e^(i h r c) (1-c^2)^((l-3)/2)
    D_r(arccos c) dc, and A(c) = (1-c^2)^floor((l-2)/2) D_r(arccos c) is
    smooth.  For even l, A is one :func:`~sympwave._quad.cheb_fit` proxy,
    integrated exactly against e^(i h r c) (1-c^2)^(-1/2) by
    :func:`~sympwave._quad.filon_chebyshev`; a symbol it cannot resolve by
    degree 4096 raises :class:`~sympwave.errors.ResolutionError`.  For odd
    l, A is integrated by :class:`~sympwave._quad.FilonPanels`.  Both use
    exact moments, so the cost does not grow with h r.  The proxy or the
    panels are built once per (symbol, E, r) and reused at every h.
    """
    if not (math.isfinite(r) and math.isfinite(h) and r > 0.0 and h >= 0.0):
        raise UsageError(f"need a finite r > 0 and a finite h >= 0, got r = {r} and h = {h}")
    return r ** (symbol.dimension - 1) * _direct_integral(*_parts_key(symbol, E, r))(h * r)


# ---------------------------------------------------------------------------
# the pole amplitudes with Chebyshev proxies and the fixed cutoff
# ---------------------------------------------------------------------------

class QFamily:
    """Boundary amplitudes of the colatitude phase (p = 2) at both sphere poles.

    ``amps`` holds one :class:`~sympwave.stationary_phase.AmplitudeData` per
    pole, (q, q1) for Theta = +e1 and (q~, q~1) for its mirror, with B = 1;
    ``proxy_u`` is the proxy of q.  Each pole's closed-form q(u), analytic
    up to the sqrt(2) endpoint singularity, is extended by
    :func:`~sympwave.stationary_phase.extend_amplitude`, the rule
    :func:`~sympwave.stationary_phase.amplitude_data` uses too; the proxy
    degrees grow with r for the Plancherel densities.  D_r is read by
    :func:`d_r`, at the level that :func:`xi_direct` reads it at too.
    """

    def __init__(self, symbol: Symbol, E, r: float):
        l = symbol.dimension
        if l < 2:
            raise UsageError("q family needs rank >= 2")
        J = rotate_to_axis(E)

        def a_u(us, mirror):
            us = np.atleast_1d(us)
            th = np.arccos(np.clip(1.0 - us**2, -1.0, 1.0))
            th = np.pi - th if mirror else th
            vals = d_r(symbol, J, r, th)
            base = 2.0 * us ** (l - 2) * (2.0 - us**2) ** ((l - 3) / 2.0)
            return base * (vals if mirror else np.conj(vals))

        self.amps = tuple(extend_amplitude(lambda u, m=mirror: a_u(u, m), 1.0, 2, label)
                          for mirror, label in ((False, ", pole +e1"), (True, ", pole -e1")))
        self.proxy_u = self.amps[0].q.proxy


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


# the most u = B terms M: R2 is exact for every M, but each further term takes
# one more derivative of the q1 proxies, and from M = 4 on that noise breaks
# the identity direct = main + R0 + R1 + R2.  At h r = 2 the a2 Plancherel gap
# is at most 1.5e-9 relative for M <= 3 and r <= 16, but 3.3e-5 at r = 8 and
# M = 4; the a2 Gaussian's at r = 1 is 15 % at M = 9
_MAX_M = 3


def check_decomposition(r: float, M: int | None):
    """Raise UsageError unless r > 0 and M is None or 0 <= M <= 3: the limits
    of :func:`xi_decompose` that do not depend on h.  The error names the
    limit that failed, r's first."""
    if not r > 0.0:
        raise UsageError(f"decomposition needs r > 0, got r = {r}")
    if not (M is None or 0 <= M <= _MAX_M):
        raise UsageError(f"decomposition needs 0 <= M <= {_MAX_M}, got M = {M}")


def xi_decompose(symbol: Symbol, E, r: float, h: float,
                 M: int | None = None) -> XiDecomposition:
    """Decompose xi(r, h) into main term plus the three remainder pieces.

    M is at most 3 and defaults to min(floor((l+1)/2), 3).  The pieces
    satisfy direct = main + R0 + R1 + R2 up to quadrature accuracy for every
    h r > 0; the u = B boundary series cancels identically between the two
    sphere poles and is therefore absent.  The q family is built once per
    (symbol, E, r) and its R2 panels once per M; both are reused at every h.
    """
    l = symbol.dimension
    if M is None:
        M = min((l + 1) // 2, _MAX_M)
    check_decomposition(r, M)
    if h <= 0.0:
        raise UsageError("decomposition needs h > 0")
    x = h * r
    fam = _q_family(*_parts_key(symbol, E, r))
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

    Psi(r) = exp(i t_phase r) psi(r) with t_phase finite, and h > 0 finite.
    Returns (direct, main): main is the stationary boundary term with
    constant C_l h^((1-l)/2); direct is one FilonPanels build over r with a
    row per colatitude node, of amplitude psi(r) r^(l-1) times the sphere
    sum at the probe's level for that product at radii across [0, rmax].
    """
    if not (math.isfinite(h) and h > 0.0 and math.isfinite(t_phase)):
        raise UsageError(f"i_psi needs a finite h > 0 and a finite t_phase, "
                         f"got h = {h} and t_phase = {t_phase}")
    l = symbol.dimension
    s_needed = symbol.growth_exponent + 1.5 * l - 2.0
    if not profile.constant_finite(0, max(0.0, s_needed)):
        raise DivergenceError(
            f"profile constant (k=0, s={s_needed:.3g}) diverges; the integral is undefined")

    J = rotate_to_axis(E)
    E = np.asarray(E, dtype=float)
    # integrand tail: |psi(r)| times r^(l-1) and the symbol's growth
    rmax = tail_radius(profile, symbol.growth_exponent + l - 1, 1e-14)

    # main term: two linear-phase radial integrals at frequencies t +/- h;
    # for even l the weight r^((l-1)/2) has a branch point at 0, handled by
    # a short r = w^2 cap with half-period panels before the Filon tail
    power = (l - 1) / 2.0

    def radial_main(sign, freq):
        def amp(rs):
            rs = np.atleast_1d(rs)
            return profile.eval(0, rs) * np.asarray(symbol.eval((sign * rs)[:, None] * E[None, :]))

        r1 = 0.0 if l % 2 else min(1.0, rmax / 8.0)
        tail = FilonPanels(lambda rs: amp(rs) * np.atleast_1d(rs) ** power,
                           np.linspace(r1, rmax, 33), warn_label="i_psi main").integrate(freq)
        if l % 2:
            return tail
        wb = halfperiod_breaks(abs(freq) * r1, 0.0, math.sqrt(r1))
        return tail + integrate_panels(
            lambda ws: 2.0 * ws ** (2.0 * power + 1.0) * amp(ws**2) * np.exp(1j * freq * ws**2),
            np.unique(np.concatenate([wb, np.linspace(0.0, math.sqrt(r1), 9)])),
            order0=16, tol=1e-11, warn_label="i_psi main cap")

    quarter = 1j * np.pi * (1.0 - l) / 4.0
    main = main_term_constant(l) * h ** ((1.0 - l) / 2.0) * (
        np.exp(quarter) * radial_main(+1, t_phase + h)
        + np.exp(-quarter) * radial_main(-1, t_phase - h)
    )

    # direct: colatitude outside, radial Filon inside; the probe takes radii
    # across [0, rmax], since at rmax alone a Gaussian symbol is exactly 0
    def weight(rs):
        return profile.eval(0, rs) * rs ** (l - 1)

    radii = rmax * np.geomspace(1.0 / 64.0, 1.0, 7)[:, None]
    level = _sphere_level(symbol, J, radii, weight(radii))
    nodes_t, nodes_w = _colatitude_rule(t_phase, h)
    fil = FilonPanels(lambda rs: weight(rs) * _sphere_sum(symbol, J, rs, nodes_t[:, None], level),
                      np.linspace(0.0, rmax, 25), warn_label="i_psi direct")
    vals = fil.integrate(t_phase + h * np.cos(nodes_t))
    direct = np.sum(nodes_w * vals * np.sin(nodes_t) ** (l - 2))
    return complex(direct), complex(main)


def _colatitude_rule(t_phase: float, h: float):
    """GL panels on [0, pi] refined where |t + h cos(theta)| is small."""
    c = (np.multiply.outer([-1.0, 1.0], [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]).ravel()
         - t_phase) / h
    cuts = np.unique(np.concatenate([np.arccos(c[(-1.0 < c) & (c < 1.0)]),
                                     np.linspace(0.0, np.pi, 17)]))
    return gl_panels(cuts[:-1], cuts[1:], 16)
