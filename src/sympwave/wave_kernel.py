"""Rank-one spherical functions, the radial spectral density, and wave kernels.

The spherical function at Cartan radius R is evaluated through its boundary
(Poisson) representation: for multiplicities (m, m2) with m2 = 0 this is the
single-angle integral

    phi_lam(R) = c_n int_0^pi (cosh R - sinh R cos t)^(-(rho + i lam)) (sin t)^(n-2) dt,

and for m2 = 1 (complex hyperbolic type) the same kernel integrated over the
unit disc with weight (1 - |w|^2)^((m-2)/2).  Both are one boundary measure
mu_R in s = log|b|, a :class:`PoissonRule`, with phi_lam(R) = int e^{-i lam s}
dmu_R.  For m2 = 0 it has the density (cosh R - cosh s)^((n-3)/2) e^{kappa s}
on [-R, R]; for odd n, phi is then a finite Fourier integral done by Filon
panels, whose cost does not grow with lam R (even n uses colatitude panels).

The kernel of exp(i t sqrt(.)) psi(sqrt(.)) applied to the shifted Laplacian
is the radial integral of exp(i t r) psi(r) against the spectral density
xi_R(r) = 2 phi_r(R) |c(r)|^-2.  Exchanging the radial and angular integrals
gives kernel(t, R) = 2 int F(t - s) dmu_R(s), with the same measure and the
profile transform F(v) = int psi(r) |c|^-2 e^{i r v} dr; this keeps the R >> t
regime (where the spherical function supplies most of the oscillation) both
fast and accurate.  F is tabulated once per profile: Filon panels give exact
values at any frequency, and a lazy piecewise-Chebyshev table over unit chunks
of v, filled from those values on first use, serves every quadrature node
after that.  ``KernelEvaluator.values`` evaluates whole arrays of (t, R)
with one table read per refinement level (per-row stopping in
:func:`integrate_panels` keeps each value equal to its own ``value``), and
``phi_zero`` takes an array of radii; ``dispersive_bound`` uses both once per
level of its outer R-integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma as real_gamma

import numpy as np

from ._quad import _FILON_NODES, ChebTable, FilonPanels, gl_panels_nodes, integrate_panels, refine
from .errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError
from .plancherel import CFunction
from .profiles import Profile
from .root_data import RootDatum, preset

_IM_TOL = 1e-10
_PAIR_BLOCK = 512    # (t, R) pairs per integrate_panels call of KernelEvaluator.values
# Filon nodes of the largest starting grid a transform may ask for (halving
# the panels that fail can multiply it by at most 64): an h3 evaluator of
# this size peaks at about 225 MB of RSS after its first value
_TRANSFORM_NODES = 1 << 18


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
# the Poisson boundary measure and spherical functions
# ---------------------------------------------------------------------------

def _check_radius(R: float):
    if not (math.isfinite(R) and R >= 0.0):
        raise UsageError("R must be finite and nonnegative")


def _sphere_constant(n: int) -> float:
    """c_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2))."""
    return real_gamma(n / 2.0) / (math.sqrt(math.pi) * real_gamma((n - 1) / 2.0))


def _line_scale(geom: RankOneGeometry, radii) -> np.ndarray:
    """scale = c_n 2^m / sinh^(n-2) R of the m_2alpha = 0 measure, per radius."""
    n, cn = geom.n, _sphere_constant(geom.n)
    return np.array([cn * 2.0 ** ((n - 3) / 2.0) / math.sinh(r) ** (n - 2) for r in radii])


def _line_density(geom: RankOneGeometry, s, R):
    """e^{kappa s} (cosh R - cosh s)^m with m = (n-3)/2 and kappa = 1 - rho + m;
    entire in s for odd n.  s and R broadcast, so each node may carry its own
    radius."""
    m = (geom.n - 3) / 2.0
    return np.exp((1.0 - geom.rho + m) * s) * np.maximum(np.cosh(R) - np.cosh(s), 0.0) ** m


def _odd_line_integrals(geom: RankOneGeometry, radii: np.ndarray, omega: np.ndarray):
    """int_{-1}^{1} e^{i omega sigma} dmu_R(R sigma) for odd n, per radius R.

    ``omega`` has one row of frequencies per radius.  The density is entire,
    so Filon panels in sigma = s / R need not resolve omega.  Radii with one
    starting panel count share one row-batched build, which halves only the
    panels where some radius fails against its own Legendre coefficients.
    So a radius never gets fewer panels than alone, and with the panels it
    has alone (always for n = 3, whose density is constant) it gets the same
    value.
    """
    out = np.empty(omega.shape, dtype=complex)
    start = np.maximum(4, np.minimum(48, np.ceil(radii / 2.0))).astype(int)
    for n_panels in np.unique(start):
        rows = np.flatnonzero(start == n_panels)
        rr = radii[rows][:, None, None]
        fil = FilonPanels(lambda sig: rr * _line_density(geom, rr * sig, rr), -1.0, 1.0,
                          n_panels=int(n_panels), warn_label="phi")
        out[rows] = _line_scale(geom, radii[rows])[:, None] * fil.integrate(omega[rows])
    return out


class PoissonRule:
    """The boundary (Poisson) measure mu_R at Cartan radius R > 0, in s = log|b|.

    phi_lam(R) = int e^{-i lam s} dmu_R(s) and kernel(t, R) = 2 int F(t - s)
    dmu_R(s).  For m_2alpha = 0 the measure has the density
    ``scale * _line_density(s, R)`` on [-R, R], with scale = c_n 2^m /
    sinh^(n-2) R; for m_2alpha = 1 it is ``scale`` times the tensor rule of
    :meth:`disc`.
    """

    def __init__(self, geom: RankOneGeometry, R: float):
        self.geom, self.R = geom, R
        self.scale = (float(_line_scale(geom, [R])[0]) if geom.m_2alpha == 0
                      else geom.m_alpha / (2.0 * math.pi))

    def disc(self, lam_max: float, order: int, subdiv: int = 1):
        """Nodes s = log|b| and weights, shape (d nodes, phi nodes), of a tensor
        rule on the unit disc in d = 1 - |w| and phi: dyadic panels toward the
        peak at (0, 0) of width ~ exp(-2R), split to resolve lam_max * s."""
        R, rho = self.R, self.geom.rho
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
        # log |cosh R - (1-d) e^{i phi} sinh R| without cancellation at the peak
        radial = math.exp(-R) + d[:, None] * math.sinh(R)
        angular = 4.0 * (1.0 - d[:, None]) * math.cosh(R) * math.sinh(R) \
            * np.sin(phi[None, :] / 2.0) ** 2
        s = 0.5 * np.log(radial**2 + angular)
        q = (self.geom.m_alpha - 2) / 2.0
        weight = (wd * (d * (2.0 - d)) ** q * (1.0 - d))[:, None] * wphi[None, :] \
            * np.exp(-rho * s)
        return s, weight

    def phi(self, lam: np.ndarray) -> np.ndarray:
        """phi_lam(R) for an array of real lam, as complex quadrature values."""
        geom, R = self.geom, self.R
        lam_max = float(np.max(np.abs(lam))) if len(lam) else 0.0
        if geom.m_2alpha == 1:
            def disc_values(level):
                s, w = self.disc(lam_max, *level)
                ph = np.exp(-1j * lam[:, None, None] * s[None, :, :])
                return self.scale * np.sum(ph * w[None, :, :], axis=(1, 2))
            return refine(disc_values, ((10, 1), (14, 1), (18, 2)), 1e-12)

        n, rho = geom.n, geom.rho
        if n % 2 == 1:
            return _odd_line_integrals(geom, np.array([R]), -R * lam[None, :])[0]

        # even dimension: smooth colatitude integrand, panels sized by the phase
        # and no wider than one unit of s = log(base)
        npan = max(8, int(np.ceil(2.0 * R)), int(np.ceil(2.0 * R * lam_max / np.pi)))
        if npan > 60000:
            raise UsageError("lam * R too large for the even-dimension path")
        # base = cosh R - sinh R cos t, written without cancellation near t = 0
        s_grid = np.linspace(-R, R, npan + 1)
        sin2 = (np.exp(s_grid) - math.exp(-R)) / (2.0 * math.sinh(R))
        theta_breaks = 2.0 * np.arcsin(np.sqrt(np.clip(sin2, 0.0, 1.0)))
        theta_breaks[0], theta_breaks[-1] = 0.0, np.pi

        def values(order):
            nodes, weights = gl_panels_nodes(theta_breaks, order)
            base = math.exp(-R) + 2.0 * math.sinh(R) * np.sin(nodes / 2.0) ** 2
            logb = np.log(base)
            amp = base ** (-rho) * np.sin(nodes) ** (n - 2)
            ph = np.exp(-1j * np.outer(lam, logb))
            return _sphere_constant(n) * (ph * (amp * weights)[None, :]).sum(axis=1)

        return refine(values, (16, 32, 64), 1e-11)


def phi_rank1(geom: RankOneGeometry, lam, R: float):
    """Spherical function phi_lam at Cartan radius R >= 0 (vectorized in lam).

    Real-valued for real lam; raises :class:`ResolutionError` if the
    imaginary part of the quadrature exceeds 1e-10 relative.
    """
    _check_radius(R)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam_arr)):
        raise UsageError("lam must be finite")
    if R == 0.0:
        out = np.ones(lam_arr.shape)
        return out if np.ndim(lam) else 1.0
    out = _real(PoissonRule(geom, R).phi(lam_arr))
    return out if np.ndim(lam) else float(out[0])


def _real(vals: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(vals), initial=0.0) + 1e-300
    if not np.max(np.abs(vals.imag), initial=0.0) <= _IM_TOL * max(1.0, scale):
        raise ResolutionError("spherical function came out non-real")
    return vals.real


def phi_zero(geom: RankOneGeometry, R):
    """phi_0 at Cartan radius R >= 0, or at every radius of an array R.

    For odd n all radii go through one call of the Filon rule that
    :func:`phi_rank1` uses for each radius alone.  Other geometries evaluate
    the radii one at a time.
    """
    Rs = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(Rs) & (Rs >= 0.0)):
        raise UsageError("R must be finite and nonnegative")
    out = np.ones(Rs.size)
    pos = np.flatnonzero(Rs.ravel() > 0.0)
    radii = Rs.ravel()[pos]
    if geom.m_2alpha == 1 or geom.n % 2 == 0:
        out[pos] = [phi_rank1(geom, 0.0, float(r)) for r in radii]
        return out.reshape(Rs.shape) if Rs.ndim else float(out[0])
    out[pos] = _real(_odd_line_integrals(geom, radii, np.zeros((radii.size, 1)))[:, 0])
    return out.reshape(Rs.shape) if Rs.ndim else float(out[0])


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
    built once as Filon panels (exact at any frequency), starting from
    max(10, rmax/3) panels and halving only those that are unresolved.  It is
    read through ``transform``, a :class:`ChebTable` filled from the panels
    one unit chunk of v at a time, on first use, to 1e-13 of int |A|.  Each
    kernel value is then a short non-oscillatory integral of the boundary
    amplitude against F.  One evaluator may be shared between threads.
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

        n_panels = max(10, int(np.ceil(self.rmax / 3.0)))
        if n_panels * _FILON_NODES > _TRANSFORM_NODES:
            raise ResolutionError(
                f"profile transform out to its truncation radius rmax = {self.rmax:.3g} "
                f"would need {n_panels} Filon panels of {_FILON_NODES} nodes, more than "
                f"the {_TRANSFORM_NODES // _FILON_NODES} allowed; use a faster-decaying "
                "profile")
        panels = FilonPanels(amp, 0.0, self.rmax, n_panels=n_panels,
                             warn_label="kernel transform")
        # tolerance scale: sum over panels of |int A|, fixed before any chunk exists
        mass = float(np.sum(2.0 * panels.half * np.abs(panels.coeffs[:, 0])))
        self.transform = ChebTable(panels.integrate, mass, warn_label="kernel transform")

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

    def value(self, t: float, R: float) -> complex:
        """The kernel at one (t, R): :meth:`values` at a single point."""
        return complex(self.values(t, R))

    def values(self, t, R) -> np.ndarray:
        """Kernel values at every pair of the broadcast arrays t and R.

        Each pair gets the value it has alone.  At R = 0 the kernel is
        2 F(t).  Otherwise (m_2alpha = 0) it is 2 scale times the integral of
        the boundary density against F(t - s): an interior s-integral plus
        two endpoint caps in w = sqrt(R -+ s), each a row of one
        :func:`integrate_panels` call with per-row stopping, so every pair
        still refining at one order shares one read of ``transform``.  Pairs
        go through in blocks of 512, which bounds the nodes held at once.  The
        disc path (m_2alpha = 1) refines one radius at a time.
        """
        t, R = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(R, dtype=float))
        if not np.all(np.isfinite(t)):
            raise UsageError("t must be finite")
        if not np.all(np.isfinite(R) & (R >= 0.0)):
            raise UsageError("R must be finite and nonnegative")
        ts, Rs = t.ravel(), R.ravel()
        out = np.empty(ts.shape, dtype=complex)
        origin = Rs == 0.0
        if np.any(origin):
            out[origin] = 2.0 * self.transform(ts[origin])
        pos = np.flatnonzero(~origin)
        boundary = self._disc_values if self.geom.m_2alpha == 1 else self._line_values
        for lo in range(0, pos.size, _PAIR_BLOCK):
            blk = pos[lo:lo + _PAIR_BLOCK]
            out[blk] = boundary(ts[blk], Rs[blk])
        return out.reshape(t.shape)

    def _disc_values(self, ts, Rs):
        out = np.empty(ts.shape, dtype=complex)
        for i, (t, R) in enumerate(zip(ts, Rs)):
            rule = PoissonRule(self.geom, float(R))

            def disc_values(order):
                s, w = rule.disc(0.0, order)
                return 2.0 * rule.scale * np.sum(w * self.transform(t - s))
            out[i] = refine(disc_values, (8, 12, 18), 1e-9)
        return out

    def _line_values(self, ts, Rs):
        breaks = []
        for t, R in zip(ts, Rs):
            gap = min(0.5, 0.25 * float(R))
            caps = np.linspace(0.0, math.sqrt(gap), 5)
            breaks += [self._s_breaks(float(t), float(R), gap), caps, caps]
        # rows come in threes per pair: the interior (sign 0), then the caps at
        # s = R - w^2 and s = -(R - w^2); caps are smooth for every parity of n
        sign = np.tile([0.0, 1.0, -1.0], len(Rs))
        pair = np.repeat(np.arange(len(Rs)), 3)

        def integrand(nodes):
            x, rows = nodes["x"], nodes["row"]
            sg, R = sign[rows], Rs[pair[rows]]
            cap = sg != 0.0
            s = np.where(cap, sg * (R - x**2), x)
            jac = np.where(cap, 2.0 * x, 1.0)
            return jac * _line_density(self.geom, s, R) * self.transform(ts[pair[rows]] - s)

        labels = ["kernel s-integral", "kernel endpoint", "kernel endpoint"] * len(Rs)
        parts = integrate_panels(integrand, breaks, order0=10, tol=1e-11, max_order=40,
                                 warn_label=labels, floor_rel=3e-9).reshape(-1, 3)
        total = parts[:, 0] + parts[:, 1] + parts[:, 2]
        return 2.0 * _line_scale(self.geom, Rs) * total


def kernel(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> complex:
    """One-shot kernel value; sweeps should reuse a :class:`KernelEvaluator`."""
    return KernelEvaluator(geom, profile).value(t, R)


@dataclass(frozen=True)
class KernelSample:
    t: float
    R: float
    value: complex


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


def dispersive_bound(geom: RankOneGeometry, profile: Profile, t: float, p: float,
                     evaluator: KernelEvaluator | None = None) -> float:
    """Convolution-bound integral {int |k_t|^{p/2} phi_0 D dR}^{2/p} for p > 2.

    Each refinement level of the outer R-integral is one :meth:`KernelEvaluator.values`
    call and one array :func:`phi_zero` over all of its radii.  ``evaluator``
    is a :class:`KernelEvaluator` of this geometry and profile, shared by the
    bounds of a sweep so that the profile transform is tabulated once; the
    bound is the same, bit for bit, as with an evaluator of its own.
    """
    if not (math.isfinite(t) and math.isfinite(p)):
        raise UsageError("t and p must be finite")
    if p <= 2.0:
        raise OutOfRangeError("the convolution bound needs p > 2")
    if evaluator is None:
        evaluator = KernelEvaluator(geom, profile)
    elif evaluator.geom.datum != geom.datum or evaluator.profile != profile:
        raise UsageError("the kernel evaluator was built for another geometry or profile")

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
        kv = np.abs(evaluator.values(t, Rs))
        return kv ** (p / 2.0) * phi_zero(geom, Rs) * cartan_weight(geom, Rs)

    # |kernel| has root-type kinks at its zeros, so the composite rule is kept
    # coarse and the bound is certified to ~0.1 percent, ample for slope fits
    breaks = np.linspace(0.0, rmax, max(13, int(rmax / 3.0) + 1))
    val = integrate_panels(f, breaks, order0=6, tol=2e-3, max_order=24,
                           warn_label="dispersive bound", floor_rel=1e-9)
    return float(abs(val) ** (2.0 / p))
