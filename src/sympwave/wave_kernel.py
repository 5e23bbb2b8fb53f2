"""Rank-one spherical functions, the radial spectral density, and wave kernels.

The spherical function at Cartan radius R is phi_lam(R) = int e^{-i lam s}
dmu_R(s), over the boundary (Poisson) measure mu_R in s = log|b|.  By
Koornwinder's Laplace-type representation of Jacobi functions (Koornwinder,
"Jacobi functions and analysis on noncompact semisimple Lie groups", 1984),
mu_R has one density on [-R, R] for every rank-one geometry:

    dmu_R(s) = C(R) g(z) ds,    z = (cosh R - cosh s) / (2 cosh R) in [0, 1/2),
    C(R) = 2^(2a-1) Gamma(a+1) / (sqrt(pi) Gamma(a+1/2)) cosh^(a-b-1) R / sinh^(2a) R,
    g(z) = (z (1 - z))^(a-1/2) 2F1(a+b, a-b; a+1/2; z),

with a = (m + m2 - 1)/2 and b = (m2 - 1)/2 for the root multiplicities
(m, m2) = (m_alpha, m_2alpha).  For m2 = 0, g(z) = z^(a-1/2); for ch2
(a = 1, b = 0), C g = 4 arcsin(sqrt z) / (pi sinh^2 R).  Every phi is one
finite Fourier integral: Filon panels in s on [-(R - gap), R - gap], whose
cost does not grow with lam R, plus the two endpoint caps s = +-(R - w^2),
w in [0, sqrt(gap)], gap = min(1/2, R/4), in which the endpoint powers of z
are smooth; the kernels below use the same caps.  When a - 1/2 is a
nonnegative integer (every odd-dimensional m2 = 0 geometry) the density is
entire in s and gap = 0.  A radius at which C(R), its factors or z would
leave double range is a :class:`UsageError` that names the range.

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
from scipy.special import hyp2f1

from ._quad import _FILON_NODES, ChebTable, FilonPanels, integrate_panels
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

    @property
    def alpha(self) -> float:       # the Jacobi indices (a, b) of the spherical functions
        return (self.m_alpha + self.m_2alpha - 1) / 2.0

    @property
    def beta(self) -> float:
        return (self.m_2alpha - 1) / 2.0


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

_LOG_RANGE = 700.0      # e^{+-700}, about 1e+-304, are normal doubles


def _radius_range(geom: RankOneGeometry) -> tuple[float, float]:
    """The positive radii at which C(R), its factors, z and e^{-rho R} stay in
    double range: sinh^(2a) R ~ R^(2a) and z ~ R^2 as R -> 0, and
    sinh^(2a) R ~ e^(2a R) and C(R) ~ e^(-rho R) as R -> oo."""
    a2 = 2.0 * geom.alpha
    return (math.exp(-_LOG_RANGE / max(a2, 2.0)), _LOG_RANGE / max(a2, geom.rho, 1.0))


def _check_radii(geom: RankOneGeometry, R) -> np.ndarray:
    """R as a float array, after a UsageError unless each radius is 0 or in range."""
    R = np.asarray(R, dtype=float)
    lo, hi = _radius_range(geom)
    if not np.all((R == 0.0) | ((R >= lo) & (R <= hi))):
        raise UsageError(f"R must be 0 or in [{lo:.3g}, {hi:.4g}] for this geometry; "
                         "outside, its boundary density leaves double range")
    return R


def _boundary_density(geom: RankOneGeometry, R):
    """The density C(R) g(z) of mu_R in s, as its two factors: C at the radii
    R, and g as a function of z = (cosh R - cosh s) / (2 cosh R).  Quadratures
    sum g and multiply by C once."""
    a, b = geom.alpha, geom.beta
    const = 2.0 ** (2.0 * a - 1.0) * real_gamma(a + 1.0) / (math.sqrt(math.pi)
                                                             * real_gamma(a + 0.5))
    scale = const * np.cosh(R) ** (a - b - 1.0) / np.sinh(R) ** (2.0 * a)

    def shape(z):
        return (z * (1.0 - z)) ** (a - 0.5) * hyp2f1(a + b, a - b, a + 0.5, z)
    return scale, shape


def _line_z(R, plus, minus):
    """z at s in [-R, R], from plus = R + s and minus = R - s, without cancellation."""
    return np.sinh(0.5 * plus) * np.sinh(0.5 * minus) / np.cosh(R)


def _entire_density(geom: RankOneGeometry) -> bool:
    """Whether a - 1/2 is a nonnegative integer, so that the density is entire in s."""
    return geom.alpha >= 0.5 and (geom.alpha - 0.5).is_integer()


def _cap_breaks(R, lam_max=0.0):
    """The endpoint caps at radii R > 0: their width gap = min(1/2, R/4) in s,
    and the breaks of their equal panels in w on [0, sqrt(gap)] (last axis):
    4, or one per pi of the phase lam_max gap that the largest frequency turns
    across the widest cap, so their Gauss-Legendre order stays low."""
    gap = np.minimum(0.5, 0.25 * R)
    panels = max(4, math.ceil(lam_max * np.max(gap, initial=0.0) / math.pi))
    return gap, np.linspace(0.0, np.sqrt(gap), panels + 1, axis=-1)


def _cap_map(R, sign, w):
    """s, z and ds/dw at the nodes w of the caps s = sign (R - w^2), sign = +-1.

    R - s (sign 1) or R + s (sign -1) is w^2 itself, so z keeps every digit,
    and the Jacobian 2w makes the density smooth for every parity of n.
    """
    near, far = w**2, R + (R - w**2)
    z = _line_z(R, np.where(sign < 0.0, near, far), np.where(sign > 0.0, near, far))
    return sign * (R - w**2), z, 2.0 * w


def _phi_quadrature(geom: RankOneGeometry, lam: np.ndarray, R: np.ndarray) -> np.ndarray:
    """phi_lam(R) at radii R > 0 as complex quadrature values, one row of real lam per radius.

    The interior s = (R - gap) sigma is one set of Filon panels in sigma on
    [-1, 1], so its cost does not grow with lam R, and radii with the same
    starting breaks share one row-batched build, which halves the panels
    where any radius fails.  An entire density has gap = 0 and equal
    starting panels, 4 to 48 by R.  Otherwise the density ends at
    sigma = +-R / (R - gap), and the starting panels are halved toward +-1
    until the last one's half-width is at most 2/5 of the distance
    gap / (R - gap) to that end.  Their Legendre tails then mostly pass
    without halving, and a radius whose panels no other radius halves gets
    the same value alone or batched.

    The endpoint caps of :func:`_cap_breaks` remain, in w = sqrt(R -+ s),
    with one panel per pi of the largest phase lam gap (4 at least), so
    their order stays low (20 for lam up to 1e5, measured); every radius of
    a batch with lam = 0, as in :func:`phi_zero`, keeps 4.
    Both caps of a radius have one density, so they are one row of a per-row
    :func:`integrate_panels` call, with the phases e^(-i lam s) + e^(i lam s).
    That row also carries the interior's value, spread evenly over
    [0, sqrt(gap)], and a lam = 0 column, so it integrates phi itself and
    stops against phi_0, the measure's whole mass, not the caps' own.
    """
    entire = _entire_density(geom)
    gap, cap_breaks = _cap_breaks(R, np.max(np.abs(lam), initial=0.0))
    # each radius' starting grid: its equal panel count, or its halvings toward +-1
    if entire:
        gap = np.zeros(R.shape)
        levels = np.maximum(4, np.minimum(48, np.ceil(R / 2.0))).astype(int)
    else:
        levels = np.maximum(2, np.ceil(np.log2(1.25 * (R - gap) / gap))).astype(int)
        lam = np.hstack([lam, np.zeros((len(R), 1))])
    scale, shape = _boundary_density(geom, R)
    interior = np.empty(lam.shape, dtype=complex)
    for level in np.unique(levels):
        rows = np.flatnonzero(levels == level)
        rr, gg, hh = (v[rows][:, None, None] for v in (R, gap, R - gap))
        # starting breaks: equal, or at +-(1 - 2^-j) for j = 0, ..., level, and +-1
        ends = np.append(1.0 - 2.0 ** -np.arange(level + 1.0), 1.0)
        brk = np.linspace(-1.0, 1.0, level + 1) if entire else np.r_[-ends[:0:-1], ends]
        fil = FilonPanels(lambda sig: hh * shape(_line_z(rr, gg + hh * (1.0 + sig),
                                                         gg + hh * (1.0 - sig))),
                          brk[:-1], brk[1:], warn_label="phi")
        interior[rows] = fil.integrate(-hh[:, :, 0] * lam[rows])
    if entire:
        return scale[:, None] * interior

    def caps(nodes):
        w, rows = nodes["x"], nodes["row"]
        s, z, jac = _cap_map(R[rows], 1.0, w)
        spread = interior[rows] / cap_breaks[rows, -1:]
        return jac * shape(z) * 2.0 * np.cos(lam[rows].T * s) + spread.T

    return scale[:, None] * integrate_panels(caps, cap_breaks, order0=10, tol=1e-13, max_order=80,
                                             warn_label="phi endpoint caps")[:, :-1]


def phi_rank1(geom: RankOneGeometry, lam, R: float):
    """Spherical function phi_lam at Cartan radius R >= 0 (vectorized in lam).

    Real-valued for real lam; raises :class:`ResolutionError` if the
    imaginary part of the quadrature exceeds 1e-10 relative.
    """
    R = _check_radii(geom, float(R))
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam_arr)):
        raise UsageError("lam must be finite")
    out = _phi(geom, lam_arr.reshape(1, -1), R.reshape(1))[0].reshape(lam_arr.shape)
    return out if np.ndim(lam) else float(out[0])


def _phi(geom: RankOneGeometry, lam: np.ndarray, R: np.ndarray) -> np.ndarray:
    """phi at radii R >= 0, one row of real lam per radius, after a
    ResolutionError if the quadrature's imaginary part passes 1e-10."""
    out = np.ones(lam.shape, dtype=complex)
    pos = R > 0.0
    if pos.any():
        out[pos] = _phi_quadrature(geom, lam[pos], R[pos])
    scale = max(1.0, np.max(np.abs(out), initial=0.0))
    if not np.max(np.abs(out.imag), initial=0.0) <= _IM_TOL * scale:
        raise ResolutionError("spherical function came out non-real")
    return out.real


def phi_zero(geom: RankOneGeometry, R):
    """phi_0 at Cartan radius R >= 0, or at every radius of an array R.

    All radii go through one call of the rule that :func:`phi_rank1` uses
    for each radius alone.  A radius gets the value it has alone unless
    another radius of the batch halves one of its starting panels; it then
    moves by rounding.  Over 400 radii across each range no panel was
    halved for h2, h3, h4, ch2, CH^3, H^6 and H^8; for H^10 and CH^5 some
    were, and values moved by up to 1.2e-15 relative.
    """
    Rs = _check_radii(geom, R)
    out = _phi(geom, np.zeros((Rs.size, 1)), Rs.ravel())[:, 0]
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
        2 F(t).  Otherwise it is twice the integral of the boundary density
        against F(t - s): an interior s-integral plus two endpoint caps in
        w = sqrt(R -+ s), each a row of one :func:`integrate_panels` call with
        per-row stopping, so every pair still refining at one order shares
        one read of ``transform``.  Pairs go through in blocks of 512, which
        bounds the nodes held at once.
        """
        t, R = np.broadcast_arrays(np.asarray(t, dtype=float), _check_radii(self.geom, R))
        if not np.all(np.isfinite(t)):
            raise UsageError("t must be finite")
        ts, Rs = t.ravel(), R.ravel()
        out = np.empty(ts.shape, dtype=complex)
        origin = Rs == 0.0
        if np.any(origin):
            out[origin] = 2.0 * self.transform(ts[origin])
        pos = np.flatnonzero(~origin)
        for lo in range(0, pos.size, _PAIR_BLOCK):
            blk = pos[lo:lo + _PAIR_BLOCK]
            out[blk] = self._line_values(ts[blk], Rs[blk])
        return out.reshape(t.shape)

    def _line_values(self, ts, Rs):
        gaps, caps = _cap_breaks(Rs)
        breaks = [b for t, R, gap, cap in zip(ts, Rs, gaps, caps)
                  for b in (self._s_breaks(float(t), float(R), float(gap)), cap, cap)]
        # rows come in threes per pair: the interior (sign 0), then the caps at
        # s = R - w^2 and s = -(R - w^2)
        sign = np.tile([0.0, 1.0, -1.0], len(Rs))
        pair = np.repeat(np.arange(len(Rs)), 3)
        scale, shape = _boundary_density(self.geom, Rs)

        def integrand(nodes):
            x, rows = nodes["x"], nodes["row"]
            sg, R = sign[rows], Rs[pair[rows]]
            s, z, jac = x.copy(), _line_z(R, R + x, R - x), np.ones(x.shape)
            cap = sg != 0.0
            s[cap], z[cap], jac[cap] = _cap_map(R[cap], sg[cap], x[cap])
            return jac * shape(z) * self.transform(ts[pair[rows]] - s)

        labels = ["kernel s-integral", "kernel endpoint", "kernel endpoint"] * len(Rs)
        parts = integrate_panels(integrand, breaks, order0=10, tol=1e-11, max_order=40,
                                 warn_label=labels, floor_rel=3e-9).reshape(-1, 3)
        total = parts[:, 0] + parts[:, 1] + parts[:, 2]
        return 2.0 * scale * total


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
    # sinh 2R overflows at R = 355, so it is formed only where m_2alpha > 0
    out = np.sinh(R) ** geom.m_alpha * (np.sinh(2.0 * R) ** geom.m_2alpha if geom.m_2alpha else 1.0)
    return out if out.ndim else float(out)


def log_regime_ratio(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> float:
    """|kernel| e^{rho R} / log t, the quantity recorded in the medium regime."""
    if t <= math.e:
        raise UsageError("the medium-regime ratio needs log t > 1")
    val = abs(kernel(geom, profile, t, R))
    return float(val * math.exp(geom.rho * R) / math.log(t))


def _truncation_radius(geom: RankOneGeometry, p: float) -> float:
    """Where the dispersive integrand's envelope e^{-decay R} (1 + R)^poly falls to 1e-16."""
    decay = geom.rho * (p / 2.0 - 1.0)
    poly = (geom.nu + geom.d) * p / 2.0 + geom.d
    rmax = 40.0 / decay
    for _ in range(40):
        nxt = (16.0 * math.log(10.0) + poly * math.log1p(rmax)) / decay
        if abs(nxt - rmax) < 1e-6:
            break
        rmax = min(nxt, 2000.0)
    return rmax


def _bound_fits(geom: RankOneGeometry, rmax: float) -> bool:
    """Whether kernel values and the polar weight stay in double range out to rmax."""
    with np.errstate(over="ignore"):
        return rmax <= _radius_range(geom)[1] and math.isfinite(cartan_weight(geom, rmax))


def bound_radius(geom: RankOneGeometry, p: float) -> float:
    """The truncation radius of the convolution bound at a finite exponent p.

    Raises :class:`OutOfRangeError` unless p > 2 and the polar weight and the
    kernel stay in double range out to that radius; the error then names the
    smallest p that fits.
    """
    if p <= 2.0:
        raise OutOfRangeError("the convolution bound needs p > 2")
    rmax = _truncation_radius(geom, p)
    if not _bound_fits(geom, rmax):
        fit = math.ceil(p * 1000.0) / 1000.0
        while not _bound_fits(geom, _truncation_radius(geom, fit)):
            fit = round(fit + 1e-3, 3)
        raise OutOfRangeError(
            f"at p = {p:g} the convolution bound runs out to R = {rmax:.4g}, where the "
            "polar weight or the kernel leaves double range; the smallest p this "
            f"geometry supports is {fit:g}")
    return rmax


def dispersive_bound(geom: RankOneGeometry, profile: Profile, t: float, p: float,
                     evaluator: KernelEvaluator | None = None) -> float:
    """Convolution-bound integral {int |k_t|^{p/2} phi_0 D dR}^{2/p} for p > 2.

    Each refinement level of the outer R-integral is one :meth:`KernelEvaluator.values`
    call and one array :func:`phi_zero` over all of its radii.  ``evaluator``
    is a :class:`KernelEvaluator` of this geometry and profile, shared by the
    bounds of a sweep so that the profile transform is tabulated once; the
    bound is the same, bit for bit, as with an evaluator of its own.  A p whose
    truncation radius leaves the range of :func:`cartan_weight` or of the
    kernel raises :class:`OutOfRangeError`, naming the smallest p that fits
    (:func:`bound_radius`).
    """
    if not (math.isfinite(t) and math.isfinite(p)):
        raise UsageError("t and p must be finite")
    rmax = bound_radius(geom, p)
    if evaluator is None:
        evaluator = KernelEvaluator(geom, profile)
    elif evaluator.geom.datum != geom.datum or evaluator.profile != profile:
        raise UsageError("the kernel evaluator was built for another geometry or profile")

    def f(Rs):
        kv = np.abs(evaluator.values(t, Rs))
        return kv ** (p / 2.0) * phi_zero(geom, Rs) * cartan_weight(geom, Rs)

    # |kernel| has root-type kinks at its zeros, so the composite rule is kept
    # coarse and the bound is certified to ~0.1 percent, ample for slope fits
    breaks = np.linspace(0.0, rmax, max(13, int(rmax / 3.0) + 1))
    val = integrate_panels(f, breaks, order0=6, tol=2e-3, max_order=24,
                           warn_label="dispersive bound", floor_rel=1e-9)
    return float(abs(val) ** (2.0 / p))
