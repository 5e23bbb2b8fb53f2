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
cost does not grow with lam R, plus the two endpoint caps R - gap <= |s| <= R,
gap = min(1/2, R/4), on the boundary row below.  When a - 1/2 is a
nonnegative integer (every odd-dimensional m2 = 0 geometry) the density is
entire in s and gap = 0.  A radius at which C(R), its factors or z would
leave double range is a :class:`UsageError` that names the range.

The kernel of exp(i t sqrt(.)) psi(sqrt(.)) applied to the shifted Laplacian
is the radial integral of exp(i t r) psi(r) against the spectral density
xi_R(r) = 2 phi_r(R) |c(r)|^-2.  Exchanging the radial and angular integrals
gives kernel(t, R) = 2 int F(t - s) dmu_R(s), with the same measure and the
profile transform F(v) = int psi(r) |c|^-2 e^{i r v} dr; this keeps the R >> t
regime (where the spherical function supplies most of the oscillation) both
fast and accurate.  Since z(s) = z(-s), s = R sin theta folds the measure's
two halves into one integral over theta in [0, pi/2],

    kernel(t, R) = 2 C(R) int R cos theta g(z) [F(t - s) + F(t + s)] dtheta.

Kernels and phi's caps are one boundary row, :func:`_boundary_rows`: the
density R cos theta g(z) in theta = arcsin(s/R), with z formed from
R + s = R (1 + sin theta) and R - s = 2 R sin^2(pi/4 - theta/2) so that it
keeps its digits at both ends, times a weight, F(t - s) + F(t + s) for a
kernel and 2 cos(lam s) for the caps.  The Jacobian R cos theta vanishes
like w = sqrt(R - s) at theta = pi/2 and makes the density smooth there for
every parity of n.  F is tabulated once per
profile: Filon panels give exact values at any frequency, and a lazy
piecewise-Chebyshev table over unit chunks of v, filled from those values on
first use, serves every quadrature node after that.
``KernelEvaluator.values`` evaluates whole arrays of (t, R) with one table
read per integrand call of :func:`integrate_panels`, whose slice rule bounds
the nodes of each read (per-row stopping keeps each value equal to its own
``value``); the theta breaks of a block of pairs are built at once, one
padded row per pair.  ``phi_zero`` takes an array of
radii.  ``dispersive_bound`` makes one ``values`` call per integrand call of
its outer R-integral, and reads phi_0 and the polar weight at that call's
radii from a cache keyed by the radii.  Every ``KernelEvaluator`` of equal
(geometry, profile) reads one cached table, so evaluators, values and bounds
tabulate F once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gamma as real_gamma

import numpy as np

from ._quad import _FILON_NODES, ChebTable, FilonPanels, build_once, integrate_panels
from .errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError
from .plancherel import CFunction
from .profiles import Profile, tail_radius
from .root_data import RootDatum, preset

_IM_TOL = 1e-10
# (t, R) pairs whose theta breaks KernelEvaluator.values builds at once, one
# padded row each; integrate_panels bounds the nodes of each integrand call
_PAIR_BLOCK = 256
# Filon nodes of the largest starting grid a transform may ask for (halving
# the panels that fail can multiply it by at most 64): an h3 evaluator of
# this size peaks at about 225 MB of RSS after its first value
_TRANSFORM_NODES = 1 << 18


@dataclass(frozen=True)
class RankOneGeometry:
    datum: RootDatum
    cfun: CFunction = field(compare=False)     # equal data give equal geometries
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
# most panels of one radius' endpoint caps, one per pi of the phase lam gap:
# lam = 3e6 at gap = 1/2 takes 477,465 of them, about 3 s and 0.4 GB of RSS,
# and without a limit lam = 1e12 asked numpy for 1.16 TiB of breaks
_CAP_PANELS = 1 << 19


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
    # imported here, as every scipy function is: import sympwave loads no scipy
    from scipy.special import hyp2f1
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
    and their increasing breaks in theta = arcsin(s / R) (last axis), the
    images theta = pi/2 - 2 arcsin(w / sqrt(2R)) of equal panels in
    w = sqrt(R - s) on [0, sqrt(gap)]: 4, or one per pi of the phase
    lam_max gap that the largest frequency turns across the widest cap, so
    their Gauss-Legendre order stays low.  More than 2^19 panels is a
    :class:`ResolutionError` that names the largest lam those radii allow.
    """
    gap = np.minimum(0.5, 0.25 * R)
    phase = lam_max * np.max(gap, initial=0.0)
    if phase > math.pi * _CAP_PANELS:
        raise ResolutionError(
            f"phi endpoint caps: the phase lam gap = {phase:.3e} needs more than "
            f"{_CAP_PANELS} panels of pi; the largest |lam| at these radii is "
            f"{math.pi * _CAP_PANELS / np.max(gap):.6g}")
    w = np.linspace(0.0, np.sqrt(gap), max(4, math.ceil(phase / math.pi)) + 1, axis=-1)
    return gap, (0.5 * np.pi - 2.0 * np.arcsin(w / np.sqrt(2.0 * R)[..., None]))[..., ::-1]


def _boundary_rows(shape, Rs, breaks, weight, spread=None, **quad):
    """Per radius Rs[i] > 0, the integral over its breaks[i] in theta of the
    density R cos theta g(z), z as in the module docstring, times
    ``weight(s, rows)`` at s = R sin theta, plus ``spread[i]`` if given: one
    per-row :func:`integrate_panels` call with the options ``quad``."""
    def integrand(nodes):
        th, rows = nodes["x"], nodes["row"]
        R = Rs[rows]
        sin = np.sin(th)
        z = _line_z(R, R * (1.0 + sin), 2.0 * R * np.sin(0.25 * np.pi - 0.5 * th) ** 2)
        vals = R * np.cos(th) * shape(z) * weight(R * sin, rows)
        return vals if spread is None else vals + spread[rows].T

    return integrate_panels(integrand, breaks, **quad)


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

    The endpoint caps remain, on the theta breaks of :func:`_cap_breaks`,
    with one panel per pi of the largest phase lam gap (4 at least), so
    their order stays low (20 for lam up to 1e5, measured); every radius of
    a batch with lam = 0, as in :func:`phi_zero`, keeps 4, and more than
    2^19 panels is a :class:`ResolutionError`.  Both caps of a radius have
    one density, so they are one row of :func:`_boundary_rows`, with the
    weight e^(-i lam s) + e^(i lam s) = 2 cos(lam s).  That row also carries
    the interior's value, spread evenly over the caps' theta range, and a
    lam = 0 column, so it integrates phi itself and stops against phi_0, the
    measure's whole mass, not the caps' own.
    """
    entire = _entire_density(geom)
    # each radius' starting grid: its equal panel count, or its halvings toward +-1
    if entire:
        gap = np.zeros(R.shape)
        levels = np.maximum(4, np.minimum(48, np.ceil(R / 2.0))).astype(int)
    else:
        gap, cap_breaks = _cap_breaks(R, np.max(np.abs(lam), initial=0.0))
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
    caps = _boundary_rows(shape, R, cap_breaks, lambda s, rows: 2.0 * np.cos(lam[rows].T * s),
                          interior / (cap_breaks[:, -1:] - cap_breaks[:, :1]), order0=10,
                          tol=1e-13, max_order=80, warn_label="phi endpoint caps")
    return scale[:, None] * caps[:, :-1]


def phi_rank1(geom: RankOneGeometry, lam, R: float):
    """Spherical function phi_lam at Cartan radius R >= 0 (vectorized in lam).

    Real-valued for real lam; raises :class:`ResolutionError` if the
    imaginary part of the quadrature exceeds 1e-10 relative, or if the
    endpoint caps would need more than 2^19 panels, which the message says
    as the largest |lam| at R (3.29e6 from R = 2 on).
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

@build_once(maxsize=4)     # (geometry, profile) pairs whose transform table stays built
def _transform_table(geom: RankOneGeometry, profile: Profile) -> ChebTable:
    """The tabulated profile transform of (geom, profile); see :class:`KernelEvaluator`."""
    if not profile.constant_finite(0, geom.n - 1.0):
        raise DivergenceError(
            f"profile constant (k=0, s={geom.n - 1}) diverges for this geometry")
    # integrand tail: |psi(r)| times the polynomial density envelope
    rmax = tail_radius(profile, geom.n - 1, 1e-14)

    def amp(rs):
        rs = np.atleast_1d(rs)
        return profile.eval(0, rs) * geom.cfun.density(rs[:, None])

    n_panels = max(10, int(np.ceil(rmax / 3.0)))
    if n_panels * _FILON_NODES > _TRANSFORM_NODES:
        raise ResolutionError(
            f"profile transform out to its truncation radius rmax = {rmax:.3g} "
            f"would need {n_panels} Filon panels of {_FILON_NODES} nodes, more than "
            f"the {_TRANSFORM_NODES // _FILON_NODES} allowed; use a faster-decaying "
            "profile")
    panels = FilonPanels(amp, 0.0, rmax, n_panels=n_panels, warn_label="kernel transform")
    # tolerance scale: sum over panels of |int A|, fixed before any chunk exists
    mass = float(np.sum(2.0 * panels.half * np.abs(panels.coeffs[:, 0])))
    return ChebTable(panels.integrate, mass, warn_label="kernel transform")


class KernelEvaluator:
    """Kernel of exp(i t r) psi(r) against the spectral density, reusable in (t, R).

    The profile transform F(v) = int_0^rmax psi(r) |c(r)|^-2 exp(i r v) dr is
    built once as Filon panels (exact at any frequency), starting from
    max(10, rmax/3) panels and halving only those that are unresolved.  It is
    read through ``transform``, a :class:`ChebTable` filled from the panels
    one unit chunk of v at a time, on first use, to 1e-13 of int |A|.  Each
    kernel value is then a short non-oscillatory integral of the boundary
    amplitude against F.  Evaluators of equal (geometry, profile) read one
    table, a :func:`~sympwave._quad.build_once` cache of the 4 latest pairs;
    a table's chunks are the same bits whichever call builds them, so
    sharing moves no value.
    """

    def __init__(self, geom: RankOneGeometry, profile: Profile):
        self.geom = geom
        self.profile = profile
        self.transform = _transform_table(geom, profile)

    def value(self, t: float, R: float) -> complex:
        """The kernel at one (t, R): :meth:`values` at a single point."""
        return complex(self.values(t, R))

    def values(self, t, R) -> np.ndarray:
        """Kernel values at every pair of the broadcast arrays t and R.

        Each pair gets the value it has alone.  At R = 0 the kernel is
        2 F(t).  Otherwise it is twice the integral of the boundary density
        against F(t - s), folded by s = R sin theta into one integral over
        theta in [0, pi/2] against F(t - s) + F(t + s).  That integral is one
        row of an :func:`integrate_panels` call with per-row stopping, so
        the pairs of one integrand call, packed by that function's slice
        rule, share one read of ``transform``, at t - s and t + s
        together.  Pairs go through in blocks of 256, which bounds only the
        arrays of their theta breaks.  |t| + R past 2^52, near where the
        table's unit chunks collapse, is a UsageError.
        """
        t, R = np.broadcast_arrays(np.asarray(t, dtype=float), _check_radii(self.geom, R))
        if not np.all(np.isfinite(t)):
            raise UsageError("t must be finite")
        if not np.all(np.abs(t) + R <= 2.0 ** 52):
            raise UsageError("|t| + R must be at most 2^52 = 4.504e+15; past it the "
                             "transform table's unit chunks lose their points")
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
        scale, shape = _boundary_density(self.geom, Rs)

        def weight(s, rows):
            # one table read for both halves of the measure, at s and at -s
            t = ts[rows]
            F = self.transform(np.concatenate([t - s, t + s])).reshape(2, -1)
            return F[0] + F[1]

        total = _boundary_rows(shape, Rs, _line_breaks(ts, Rs), weight, order0=10, tol=1e-11,
                               max_order=40, warn_label="kernel boundary integral",
                               floor_rel=3e-9)
        return 2.0 * scale * total


# the profile transform is peaked where its argument vanishes: the offsets -d, then +d
_PEAK_OFFSETS = np.outer((-1.0, 1.0), (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)).ravel()
_EQUAL_PANELS = 12      # most equal s-panels of one pair


def _line_breaks(ts: np.ndarray, Rs: np.ndarray) -> list[np.ndarray]:
    """Breaks in theta = arcsin(s / R) on [0, pi/2], one sorted array per pair
    (t, R > 0): equal s-panels on [0, R - gap], the points |t -+ d| in
    (0, R - gap) near the peaks of F(t -+ s), and the endpoint cap's breaks
    from :func:`_cap_breaks`.

    Each pair is one row of a padded array: its n = min(12, max(4,
    ceil((R - gap) / 2))) equal panels start at j (R - gap) / n, as
    ``linspace(0, R - gap, n + 1)[:-1]`` forms them; pads and the peaks
    outside (0, R - gap) are NaN.  One arcsin serves every row, which is then
    sorted and keeps its finite entries without exact repeats.
    """
    gap, cap = _cap_breaks(Rs)
    R = Rs[:, None]
    hi = R - gap[:, None]
    n = np.minimum(_EQUAL_PANELS, np.maximum(4, np.ceil(hi / 2.0)))
    j = np.arange(float(_EQUAL_PANELS))
    equal = np.where(j < n, j * (hi / n), np.nan)
    peaks = np.abs(ts[:, None] + _PEAK_OFFSETS)
    peaks[~((peaks > 0.0) & (peaks < hi))] = np.nan
    theta = np.hstack([np.arcsin(np.hstack([equal / R, peaks / R])), cap])
    theta.sort(axis=1)
    keep = ~np.isnan(theta)
    keep[:, 1:] &= theta[:, 1:] != theta[:, :-1]
    return np.split(theta[keep], np.cumsum(keep.sum(axis=1))[:-1])


def kernel(geom: RankOneGeometry, profile: Profile, t: float, R: float) -> complex:
    """The kernel at one (t, R): :meth:`KernelEvaluator.value`."""
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
        rmax = nxt
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


def _bound_breaks(geom: RankOneGeometry, p: float) -> np.ndarray:
    """The breaks of the outer R-panels of :func:`dispersive_bound`: equal
    panels about 3 wide on [0, bound_radius(geom, p)], at least 12."""
    rmax = bound_radius(geom, p)
    return np.linspace(0.0, rmax, max(13, int(rmax / 3.0) + 1))


@build_once(maxsize=12)    # the node sets of the outer calls of the 4 latest (geometry, p)
def _radial_weight(geom: RankOneGeometry, radii: bytes):
    """phi_0 and the polar weight D, read-only, at the radii whose float64
    bytes are ``radii``: the nodes of one call of the outer R-integral."""
    Rs = np.frombuffer(radii)
    parts = phi_zero(geom, Rs), cartan_weight(geom, Rs)
    for part in parts:
        part.setflags(write=False)
    return parts


def dispersive_bound(geom: RankOneGeometry, profile: Profile, t: float, p: float) -> float:
    """Convolution-bound integral {int |k_t|^{p/2} phi_0 D dR}^{2/p} for p > 2.

    Each integrand call of the outer R-integral, as
    :func:`~sympwave._quad.integrate_panels` forms them, is one
    :meth:`KernelEvaluator.values` call over all of its radii.  Its
    evaluator reads the one table of (geom, profile), and phi_0 and the
    polar weight D at a call's radii depend only on those radii: they are
    formed once, by one array :func:`phi_zero`, and kept by
    :func:`~sympwave._quad.build_once`, keyed by the radii, for the node sets
    of the 4 latest (geom, p).  So a sweep over t tabulates F once and
    builds phi_0 once per node set, with the bits of a cold start.
    A t that takes |t| + R past 2^52 is a :class:`UsageError` there.
    A p whose truncation radius leaves the range of :func:`cartan_weight` or
    of the kernel raises :class:`OutOfRangeError`, naming the smallest p that
    fits (:func:`bound_radius`).
    """
    if not (math.isfinite(t) and math.isfinite(p)):
        raise UsageError("t and p must be finite")
    breaks = _bound_breaks(geom, p)
    evaluator = KernelEvaluator(geom, profile)

    def f(Rs):
        phi0, weight = _radial_weight(geom, Rs.tobytes())
        kv = np.abs(evaluator.values(t, Rs))
        return kv ** (p / 2.0) * phi0 * weight

    # |kernel| has root-type kinks at its zeros, so the composite rule is kept
    # coarse and the bound is certified to ~0.1 percent, ample for slope fits
    val = integrate_panels(f, breaks, order0=6, tol=2e-3, max_order=24,
                           warn_label="dispersive bound", floor_rel=1e-9)
    return float(abs(val) ** (2.0 / p))
