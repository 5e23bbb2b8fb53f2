"""Rank-one spherical functions, the radial spectral density, and wave kernels.

The spherical function at Cartan radius R is evaluated through its boundary
(Poisson) representation: for multiplicities (m, m2) with m2 = 0 this is the
single-angle integral

    phi_lam(R) = c_n int_0^pi (cosh R - sinh R cos t)^(-(rho + i lam)) (sin t)^(n-2) dt,

and for m2 = 1 (complex hyperbolic type) the same kernel integrated over the
unit disc with weight (1 - |w|^2)^((m-2)/2).  In log-radial coordinates
s = log(cosh R - sinh R cos t) the single-angle case becomes a finite Fourier
integral with amplitude (cosh R - cosh s)^((n-3)/2), handled by Legendre-
projected Filon panels whose cost does not grow with lam R.

The kernel of exp(i t sqrt(.)) psi(sqrt(.)) applied to the shifted Laplacian
is the radial integral of exp(i t r) psi(r) against the spectral density
xi_R(r) = 2 phi_r(R) |c(r)|^-2.  Exchanging the radial and angular integrals
expresses it through the profile transform F(v) = int psi(r) |c|^-2 e^{i r v} dr,
evaluated at v = t - s; this keeps the R >> t regime (where the spherical
function supplies most of the oscillation) both fast and accurate.  F is
tabulated once per profile: Filon panels give exact values at any frequency,
and a lazy piecewise-Chebyshev table over unit chunks of v, filled from those
values on first use, serves every quadrature node after that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma as real_gamma

import numpy as np

from ._quad import ChebTable, FilonPanels, gl_panels_nodes, integrate_panels
from .errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError
from .plancherel import CFunction
from .profiles import Profile
from .root_data import RootDatum, preset

_IM_TOL = 1e-10


@dataclass(frozen=True)
class RankOneGeometry:
    datum: RootDatum
    cfun: CFunction
    n: int
    rho: float
    d: int

    @property
    def m_alpha(self) -> int:
        return self.datum.reduced_roots[0].m_alpha

    @property
    def m_2alpha(self) -> int:
        return self.datum.reduced_roots[0].m_2alpha

    @property
    def nu(self) -> int:
        return self.datum.nu


def rank_one_geometry(name_or_datum) -> RankOneGeometry:
    datum = preset(name_or_datum) if isinstance(name_or_datum, str) else name_or_datum
    if datum.rank != 1:
        raise UsageError("rank-one geometry requires a rank-one root datum")
    if datum.reduced_roots[0].m_2alpha not in (0, 1):
        raise UsageError("only multiplicities m_2alpha in {0, 1} are supported")
    return RankOneGeometry(datum=datum, cfun=CFunction(datum), n=datum.n,
                           rho=float(datum.rho[0]), d=1)


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

def _phi_single_angle(geom: RankOneGeometry, lam: np.ndarray, R: float) -> np.ndarray:
    """Poisson integral over [0, pi]; exact for m_2alpha = 0."""
    n, rho = geom.n, geom.rho
    m = (n - 3) / 2.0
    kappa = 1.0 - rho + m
    cn = real_gamma(n / 2.0) / (math.sqrt(math.pi) * real_gamma((n - 1) / 2.0))

    if n % 2 == 1:
        # log-radial Filon: amplitude e^{kappa s} (cosh R - cosh s)^m is entire
        pref = cn * 2.0**m / math.sinh(R) ** (n - 2)
        def amp(s):
            return np.exp(kappa * s) * np.maximum(np.cosh(R) - np.cosh(s), 0.0) ** m
        fil = FilonPanels(amp, -R, R, n_panels=max(4, min(48, int(np.ceil(R / 2.0)))),
                          warn_label="phi")
        return pref * fil.integrate(-lam)

    # even dimension: smooth colatitude integrand, panels sized by the phase
    lam_max = float(np.max(np.abs(lam))) if len(lam) else 0.0
    npan = max(8, int(np.ceil(2.0 * R * lam_max / np.pi)))
    if npan > 60000:
        raise UsageError("lam * R too large for the even-dimension path")
    s_grid = np.linspace(-R, R, npan + 1)
    theta_breaks = np.arccos(np.clip((np.cosh(R) - np.exp(s_grid)) / np.sinh(R), -1.0, 1.0))
    theta_breaks[0], theta_breaks[-1] = 0.0, np.pi

    def values(order):
        nodes, weights = gl_panels_nodes(theta_breaks, order)
        base = np.cosh(R) - np.sinh(R) * np.cos(nodes)
        logb = np.log(base)
        amp = base ** (-rho) * np.sin(nodes) ** (n - 2)
        ph = np.exp(-1j * np.outer(lam, logb))
        return cn * (ph * (amp * weights)[None, :]).sum(axis=1)

    prev = values(16)
    cur = values(32)
    if np.max(np.abs(cur - prev)) > 1e-11 * (np.max(np.abs(cur)) + 1e-300):
        cur = values(64)
    return cur


def _disc_grid(R: float, lam_max: float, order: int, subdiv: int = 1):
    """Tensor rule on the unit disc resolving the boundary peak at w = 1.

    Works in d = 1 - u and phi; the kernel magnitude concentrates near
    (d, phi) = (0, 0) on scales ~ exp(-2R), so both directions use dyadic
    panels toward zero, optionally split further for the log-radial phase.
    Returns (d, w_d, phi, w_phi) flat node/weight arrays.
    """
    eps = max(1e-13, min(0.25, math.exp(-2.0 * R) / 8.0))
    k_max = int(np.ceil(np.log2(1.0 / eps)))
    levels = 2.0 ** (-np.arange(1, k_max + 1, dtype=float))
    half = np.unique(np.concatenate([[0.0, 1.0], levels]))
    split = max(subdiv, int(np.ceil(lam_max * 0.7 / 4.0)))
    if split > 1:
        half = np.unique(np.concatenate(
            [np.linspace(a, b, split + 1) for a, b in zip(half[:-1], half[1:])]))
    d, wd = gl_panels_nodes(half, order)
    breaks_phi = np.unique(np.concatenate([-np.pi * half[::-1], np.pi * half]))
    phi, wphi = gl_panels_nodes(breaks_phi, order)
    return d, wd, phi, wphi


def _disc_logb(R: float, d: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """log |cosh R - (1-d) e^{i phi} sinh R| without cancellation at the peak."""
    radial = math.exp(-R) + d[:, None] * math.sinh(R)
    angular = 4.0 * (1.0 - d[:, None]) * math.cosh(R) * math.sinh(R) \
        * np.sin(phi[None, :] / 2.0) ** 2
    return 0.5 * np.log(radial**2 + angular)


def _phi_disc(geom: RankOneGeometry, lam: np.ndarray, R: float) -> np.ndarray:
    """Poisson integral over the unit disc, for m_2alpha = 1."""
    rho, ma = geom.rho, geom.m_alpha
    q = (ma - 2) / 2.0
    c_disc = ma / (2.0 * math.pi)
    lam_max = float(np.max(np.abs(lam))) if len(lam) else 0.0

    def values(order, subdiv=1):
        d, wd, phi, wphi = _disc_grid(R, lam_max, order, subdiv)
        u = 1.0 - d
        logb = _disc_logb(R, d, phi)
        weight = (wd * (d * (2.0 - d)) ** q * u)[:, None] * wphi[None, :] \
            * np.exp(-rho * logb)
        ph = np.exp(-1j * lam[:, None, None] * logb[None, :, :])
        return c_disc * np.sum(ph * weight[None, :, :], axis=(1, 2))

    prev = values(10)
    cur = values(14)
    if np.max(np.abs(cur - prev)) > 1e-12 * (np.max(np.abs(cur)) + 1e-300):
        cur = values(18, subdiv=2)
    return cur


def phi_rank1(geom: RankOneGeometry, lam, R: float):
    """Spherical function phi_lam at Cartan radius R >= 0 (vectorized in lam).

    Real-valued for real lam; raises :class:`ResolutionError` if the
    imaginary part of the quadrature exceeds 1e-10 relative.
    """
    if R < 0.0:
        raise UsageError("R must be nonnegative")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if R == 0.0:
        out = np.ones(lam_arr.shape)
        return out if np.ndim(lam) else 1.0
    if geom.m_2alpha == 0:
        vals = _phi_single_angle(geom, lam_arr, R)
    else:
        vals = _phi_disc(geom, lam_arr, R)
    scale = np.max(np.abs(vals)) + 1e-300
    if not np.max(np.abs(vals.imag)) <= _IM_TOL * max(1.0, scale):
        raise ResolutionError("spherical function came out non-real")
    out = vals.real
    return out if np.ndim(lam) else float(out[0])


def phi_zero(geom: RankOneGeometry, R: float) -> float:
    return phi_rank1(geom, 0.0, R)


def xi_density(geom: RankOneGeometry, R: float, r):
    """Radial spectral density: 2 phi_r(R) |c(r)|^-2 (the sphere is {+r, -r})."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise UsageError("r must be positive")
    dens = geom.cfun.density(r_arr[:, None])
    vals = 2.0 * phi_rank1(geom, r_arr, R) * dens
    return vals if np.ndim(r) else float(vals[0])


# ---------------------------------------------------------------------------
# wave kernels
# ---------------------------------------------------------------------------

def _tail_radius(profile: Profile, power: float, eps: float) -> float:
    """Radius where |psi(r)| (1 + r)^power stays below eps."""
    r = max(1.0, profile.truncation_radius(eps))
    for _ in range(200):
        if profile.eval(0, r) * (1.0 + r) ** power < eps:
            return r
        r *= 1.1
    return r


class KernelEvaluator:
    """Kernel of exp(i t r) psi(r) against the spectral density, reusable in (t, R).

    The profile transform F(v) = int_0^rmax psi(r) |c(r)|^-2 exp(i r v) dr is
    built once as Filon panels (exact at any frequency) and read through
    ``transform``, a :class:`ChebTable` filled from the panels one unit chunk
    of v at a time, on first use, to 1e-13 of int |A|.  Each kernel value is
    then a short non-oscillatory integral of the boundary amplitude against
    F.  One evaluator may be shared between threads.
    """

    def __init__(self, geom: RankOneGeometry, profile: Profile):
        self.geom = geom
        self.profile = profile
        if not profile.constant_finite(0, geom.n - 1.0):
            raise DivergenceError(
                f"profile constant (k=0, s={geom.n - 1}) diverges for this geometry")
        # integrand tail: |psi(r)| times the polynomial density envelope
        self.rmax = _tail_radius(profile, geom.n - 1, 1e-14)

        def amp(rs):
            rs = np.atleast_1d(rs)
            return profile.eval(0, rs) * geom.cfun.density(rs[:, None])

        panels = FilonPanels(amp, 0.0, self.rmax,
                             n_panels=max(10, int(np.ceil(self.rmax / 3.0))),
                             warn_label="kernel transform")
        # tolerance scale: sum over panels of |int A|, fixed before any chunk exists
        mass = float(np.sum(2.0 * panels.half * np.abs(panels.coeffs[:, 0])))
        self.transform = ChebTable(panels.integrate, mass, warn_label="kernel transform")

    def value(self, t: float, R: float) -> complex:
        geom = self.geom
        if R == 0.0:
            return 2.0 * self.transform(t)
        if geom.m_2alpha == 0:
            return self._value_single_angle(t, R)
        return self._value_disc(t, R)

    def _s_breaks(self, t: float, R: float, endpoint_gap: float) -> np.ndarray:
        lo, hi = -R + endpoint_gap, R - endpoint_gap
        coarse = min(24, max(8, int(np.ceil((hi - lo) / 2.0))))
        pts = set(np.linspace(lo, hi, coarse + 1))
        if lo < t < hi:
            # the profile transform is peaked where its argument vanishes
            for dtv in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                for sgn in (-1.0, 1.0):
                    s = t + sgn * dtv
                    if lo < s < hi:
                        pts.add(s)
        return np.array(sorted(pts))

    def _value_single_angle(self, t: float, R: float) -> complex:
        geom = self.geom
        n, rho = geom.n, geom.rho
        m = (n - 3) / 2.0
        kappa = 1.0 - rho + m
        cn = real_gamma(n / 2.0) / (math.sqrt(math.pi) * real_gamma((n - 1) / 2.0))
        pref = 2.0 * cn * 2.0**m / math.sinh(R) ** (n - 2)

        def interior(s):
            a = np.exp(kappa * s) * np.maximum(np.cosh(R) - np.cosh(s), 0.0) ** m
            return a * self.transform(t - s)

        gap = min(0.5, 0.25 * R)
        total = integrate_panels(interior, self._s_breaks(t, R, gap),
                                 order0=10, tol=1e-11, max_order=40,
                                 warn_label="kernel s-integral", floor_rel=3e-9)

        # endpoint caps in the variable w = sqrt(R -+ s): smooth for every parity of n
        for sign in (1.0, -1.0):
            def cap(w):
                s = sign * (R - w**2)
                a = np.exp(kappa * s) * np.maximum(np.cosh(R) - np.cosh(s), 0.0) ** m
                return 2.0 * w * a * self.transform(t - s)
            total += integrate_panels(cap, np.linspace(0.0, math.sqrt(gap), 5),
                                      order0=10, tol=1e-11, max_order=40,
                                      warn_label="kernel endpoint", floor_rel=3e-9)
        return complex(pref * total)

    def _value_disc(self, t: float, R: float) -> complex:
        geom = self.geom
        rho, ma = geom.rho, geom.m_alpha
        q = (ma - 2) / 2.0
        c_disc = ma / (2.0 * math.pi)

        def values(order):
            d, wd, phi, wphi = _disc_grid(R, 0.0, order)
            u = 1.0 - d
            logb = _disc_logb(R, d, phi)
            weight = (wd * (d * (2.0 - d)) ** q * u)[:, None] * wphi[None, :] \
                * np.exp(-rho * logb)
            fvals = self.transform(t - logb)
            return 2.0 * c_disc * np.sum(weight * fvals)

        prev = values(8)
        cur = values(12)
        if abs(cur - prev) > 1e-9 * (abs(cur) + 1e-300):
            cur = values(18)
        return complex(cur)


def kernel(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> complex:
    """One-shot kernel value; sweeps should reuse a :class:`KernelEvaluator`."""
    return KernelEvaluator(geom, profile).value(t, R)


@dataclass(frozen=True)
class KernelSample:
    t: float
    R: float
    value: complex


def kernel_sample(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> KernelSample:
    return KernelSample(t=t, R=R, value=kernel(geom, profile, t, R))


def distinguished(geom: RankOneGeometry, sample: KernelSample) -> complex:
    """Kernel of the right-invariant (distinguished) Laplacian: e^{rho R} times the value."""
    return complex(np.exp(geom.rho * sample.R) * sample.value)


def cartan_weight(geom: RankOneGeometry, R):
    """Radial Jacobian of the polar decomposition: sinh^m(R) sinh^m2(2R)."""
    R = np.asarray(R, dtype=float)
    out = np.sinh(R) ** geom.m_alpha * np.sinh(2.0 * R) ** geom.m_2alpha
    return out if out.ndim else float(out)


def log_regime_ratio(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> float:
    """|kernel| e^{rho R} / log t, the quantity recorded in the medium regime."""
    if t <= math.e:
        raise UsageError("the medium-regime ratio needs log t > 1")
    val = abs(kernel(geom, profile, t, R))
    return float(val * math.exp(geom.rho * R) / math.log(t))


def dispersive_bound(geom: RankOneGeometry, profile: Profile, t: float, p: float) -> float:
    """Convolution-bound integral {int |k_t|^{p/2} phi_0 D dR}^{2/p} for p > 2."""
    if p <= 2.0:
        raise OutOfRangeError("the convolution bound needs p > 2")
    ev = KernelEvaluator(geom, profile)

    # decay exponent of the integrand envelope fixes the truncation radius
    decay = geom.rho * (p / 2.0 - 1.0)
    poly = (geom.nu + geom.d) * p / 2.0 + geom.d
    rmax = 40.0 / decay
    for _ in range(40):
        nxt = (16.0 * math.log(10.0) + poly * math.log1p(rmax)) / decay
        if abs(nxt - rmax) < 1e-6:
            break
        rmax = min(nxt, 2000.0)

    def f(Rs):
        out = np.empty(len(Rs))
        for i, R in enumerate(Rs):
            kv = abs(ev.value(t, float(R)))
            out[i] = kv ** (p / 2.0) * phi_zero(geom, float(R)) * cartan_weight(geom, float(R))
        return out

    # |kernel| has root-type kinks at its zeros, so the composite rule is kept
    # coarse and the bound is certified to ~0.1 percent, ample for slope fits
    breaks = np.linspace(0.0, rmax, max(13, int(rmax / 3.0) + 1))
    val = integrate_panels(f, breaks, order0=6, tol=2e-3, max_order=24,
                           warn_label="dispersive bound", floor_rel=1e-9)
    return float(abs(val) ** (2.0 / p))
