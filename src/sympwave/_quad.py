"""Quadrature engines shared by the oscillatory-integral modules.

Three engines cover everything in the package:

* half-period panel subdivision with fixed-order Gauss-Legendre inside each
  panel, the order doubled until self-consistent (for phases resolved by the
  panel grid); an integrand may return several values per node, which
  refine together, or take one break array per row, each row then stopping
  on its own; each row is cut, from its own first panel, into slices of at
  most 2^14 nodes, slices are packed into integrand calls of at most 2^14
  nodes, and a row's slice sums are added by math.fsum, so every row keeps
  the bits it has alone;
* Filon panels for linear phases of arbitrary frequency: the amplitude is
  Legendre-projected per panel and the moments int P_k(x) e^(i mu x) dx
  = 2 i^k j_k(mu) are exact spherical-Bessel values, so the panels only
  have to resolve the amplitude, never the oscillation; an amplitude may
  return rows, each integrated at its own frequency;
* a lazy piecewise-Chebyshev table for a smooth function of one variable
  that is read at very many points, such as a Filon transform read at every
  node of an outer quadrature: unit-width chunks of degree 24 are built on
  first use, halved where the function varies fast, merged into one set of
  sorted piece arrays, and then cost one Clenshaw recurrence per point, run
  over fixed-size blocks of points.

Gauss-Legendre panels come from :func:`gl_panels`; fixed rules are built at import.

Filon panels and table chunks are refined by one rule, :func:`_split`: fit
every starting piece, halve only the pieces whose last two coefficients are
not small, fit only the halves, and stop after six halvings with one
:class:`AccuracyWarning` (the split-where-unresolved rule of piecewise
Chebyshev constructors, Pachon, Platte & Trefethen 2010).

Chebyshev proxies of whole functions, such as the boundary amplitudes of
the stationary-phase expansions, come from one fit rule, :func:`cheb_fit`:
sample at first-kind points of degree 16, 32, ..., 4096, stop at the first
degree whose last three coefficients are at most 1e-11 of the largest, chop
the trailing coefficients below that, and raise ResolutionError past 4096.
Every fit turns samples into coefficients by one DCT-II.

A Chebyshev variant with weight (1-c^2)^(-1/2) and ordinary Bessel moments
int T_k(c) e^(i mu c) (1-c^2)^(-1/2) dc = pi i^k J_k(mu) integrates such a
proxy for the colatitude integrals of even rank.
"""

from __future__ import annotations

import math
import threading
import warnings
from functools import lru_cache, update_wrapper
from itertools import accumulate, product

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial.chebyshev import Chebyshev

from .errors import ResolutionError


class AccuracyWarning(UserWarning):
    """Raised when panel or piece refinement stops before reaching the target."""


# ---------------------------------------------------------------------------
# one build-once rule for every cache of built values
# ---------------------------------------------------------------------------

_CACHES = []           # every shared build_once cache, for clear_caches


def build_once(maxsize: int | None, shared: bool = True):
    """``lru_cache(maxsize)`` behind one lock per cache, held across each call.

    Threads that ask at once therefore build a key's value once.  A build
    may read another cache but never its own.  As with ``lru_cache``, a
    build that raises caches nothing, and the wrapper has ``cache_clear()``
    and ``cache_info()``.  A ``shared`` cache is process-wide and emptied by
    :func:`clear_caches`; one made per object with ``shared=False`` goes
    with its object.
    """
    def decorate(build):
        cached, lock = lru_cache(maxsize)(build), threading.Lock()

        def once(*key):
            with lock:
                return cached(*key)

        once.cache_clear, once.cache_info = cached.cache_clear, cached.cache_info
        if shared:
            _CACHES.append(once)
        return update_wrapper(once, build)
    return decorate


def clear_caches():
    """Empty every process-wide cache of the package: each :func:`build_once`."""
    for cache in _CACHES:
        cache.cache_clear()


@lru_cache(maxsize=None)
def gl_rule(order: int):
    x, w = npleg.leggauss(order)
    return x, w


def gl_panels(lo: np.ndarray, hi: np.ndarray, order: int):
    """Flat Gauss-Legendre nodes and weights of order ``order`` on the panels
    [lo[i], hi[i]], panel by panel (for breaks b, the panels b[:-1], b[1:])."""
    x, w = gl_rule(order)
    half = 0.5 * (hi - lo)[:, None]
    return (half * (x[None, :] + 1.0) + lo[:, None]).ravel(), (half * w[None, :]).ravel()


# a node of one row of an :func:`integrate_panels` call with one break array
# per row; nodes carry their rows, so the integrand takes one node array: the
# bench counts evaluations through a one-argument wrapper ``counted(x)``
ROW_NODE = np.dtype([("x", float), ("row", np.intp)])
# the most nodes of one slice of a row, and of one integrand call, in
# :func:`integrate_panels`
FUSED_NODES = 1 << 14


def _fsum(parts):
    """Sum of the arrays ``parts`` by :func:`math.fsum` per entry, Re and Im apart; one as is."""
    if len(parts) == 1:
        return parts[0]
    stack = np.stack(parts)
    cols = stack.reshape(len(parts), -1).view(float)     # Re, Im pairs if complex
    return np.array([math.fsum(c) for c in cols.T]).view(stack.dtype).reshape(stack.shape[1:])[()]


def integrate_panels(f, breaks, order0: int = 16, tol: float = 1e-10,
                     max_order: int = 256, warn_label: str = "integral",
                     floor_rel: float = 1e-14, first_orders: int = 2):
    """Composite GL with order doubling until two levels agree.

    ``breaks`` is one break array, integrated as a single row, or a sequence
    of break arrays, one per row.  ``f`` gets one flat array of the nodes of
    rows still refining and returns values (complex ok) of shape ``lead +
    (nodes,)``.  With a sequence, each node is a :data:`ROW_NODE`, its ``x``
    tagged with its ``row`` index, and the result has one entry of shape
    ``lead`` per row; with one break array the nodes are plain floats and the
    result has shape ``lead``.  Each entry of ``lead`` is its own integrand;
    the entries of a row share its nodes and refine together.  The nodes come
    as one array, rows tagged in it, because ``bench/tracing.py`` counts
    evaluations by wrapping ``f`` as a one-argument ``counted(x)``.

    At each order, each row's panels are cut, from its own first panel, into
    slices of whole panels with at most 2^14 nodes (:data:`FUSED_NODES`),
    and consecutive slices, rows in order, are packed into integrand calls of
    at most 2^14 nodes, each order's slices in turn.  A row's value is the
    :func:`_fsum` of its slices' sums, so it depends on the row alone; if
    ``f`` at a node does not depend on the other nodes, a row of one slice
    per order has the bits of one call per order.  The first pass takes the
    first ``first_orders`` orders ``order0``, ``2 order0``, ... of every row
    (none past ``max_order``); a caller whose rows seldom stop at ``2 order0``
    passes 3.  A row stops at the first order at which its last two levels
    agree, to ``tol`` relative to the finer one in the max norm over its
    entries, or to ``floor_rel`` times their largest integrand mass at
    ``order0`` for rows that are small through cancellation.
    """
    per_row = len(breaks) > 0 and np.ndim(breaks[0]) > 0
    grids = ([np.asarray(b, dtype=float) for b in breaks] if per_row
             else [np.asarray(breaks, dtype=float)])
    # every row's panels, rows in order: row i has starts[i]:starts[i + 1]
    starts = [0, *accumulate(len(g) - 1 for g in grids)]
    lo, hi = np.concatenate([g[:-1] for g in grids]), np.concatenate([g[1:] for g in grids])

    def call(run, sums):
        """``f`` once on the slices ``run``, each (row, order, first panel, panels):
        their sums into ``sums[row, order]``, and at ``order0`` masses into ``sums[row, 0]``."""
        levels = []
        for order in sorted({s[1] for s in run}):
            rows, _, first, size = np.array([s for s in run if s[1] == order]).T
            sel = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
            levels.append((order, rows, size * order, *gl_panels(lo[sel], hi[sel], order)))
        nodes = np.concatenate([x for *_, x, _ in levels])
        if per_row:
            tags = np.concatenate([np.repeat(rows, n) for _, rows, n, *_ in levels])
            nodes = np.rec.fromarrays([nodes, tags], dtype=ROW_NODE).view(np.ndarray)
        fv, a = f(nodes), 0
        for order, rows, n, _, w in levels:
            vals, a = fv[..., a:a + w.size], a + w.size
            prod, mass = vals * w, np.abs(vals) * np.abs(w) if order == order0 else None
            cuts = [0, *accumulate(n.tolist())]
            for i, b, c in zip(rows.tolist(), cuts, cuts[1:]):
                sums.setdefault((i, order), []).append(prod[..., b:c].sum(axis=-1))
                if mass is not None:
                    sums.setdefault((i, 0), []).append(mass[..., b:c].sum(axis=-1))

    def level(rows, orders):
        """{(row, order): value} for ``rows`` and ``orders``, and (row, 0): mass at ``order0``."""
        sums, run, size = {}, [], 0
        for i, order in product(rows, orders):
            step = max(1, FUSED_NODES // order)
            for a in range(starts[i], starts[i + 1], step):
                n = order * min(step, starts[i + 1] - a)
                if run and size + n > FUSED_NODES:
                    call(run, sums)
                    run, size = [], 0
                run.append((i, order, a, n // order))
                size += n
        call(run, sums)
        return {key: _fsum(parts) for key, parts in sums.items()}

    orders = [order0]
    while len(orders) < first_orders and orders[-1] < max_order:
        orders.append(2 * orders[-1])
    first, live = level(range(len(grids)), orders), list(range(len(grids)))
    out, scale = [first[i, order0] for i in live], [first[i, 0].max() for i in live]
    residual, order = [0.0] * len(live), order0
    while order < max_order and live:
        order *= 2
        now, still = first if order in orders else level(live, [order]), []
        for i in live:
            c = now[i, order]
            out[i], residual[i] = c, abs(c - out[i]).max()
            if residual[i] > tol * abs(c).max() + floor_rel * scale[i] + 1e-300:
                still.append(i)
        live = still
    for i in live:
        warnings.warn(f"{warn_label}: panel refinement hit order {max_order} "
                      f"with residual {residual[i]:.2e}", AccuracyWarning)
    return np.array(out) if per_row else out[0]


MAX_PANELS = 200000    # panels of one halfperiod_breaks call


def halfperiod_breaks(total_phase: float, a: float, b: float) -> np.ndarray:
    """Breakpoints splitting [a, b] into equal panels, each spanning at most pi
    of a phase linear on [a, b] whose whole span is ``total_phase``; at most
    200000 panels (:data:`MAX_PANELS`)."""
    n = max(1, min(MAX_PANELS, int(np.ceil(abs(total_phase) / np.pi))))
    return a + (b - a) * np.linspace(0.0, 1.0, n + 1)


# ---------------------------------------------------------------------------
# one split rule for Filon panels and table pieces
# ---------------------------------------------------------------------------

_SPLIT_DEPTH = 6       # halvings of a starting piece before it is kept unresolved


def _split(fit, lo, hi, tol: float, warn_label: str, scale=None):
    """Pieces refining the starting pieces [lo[i], hi[i]], halving only those that fail.

    ``fit(lo, hi)`` returns the coefficients of the pieces [lo, hi], pieces on
    axis -2 and the coefficient index last, with any leading axes for rows.
    A piece fails where, in any row, either of its last two coefficients
    exceeds ``tol * scale``; ``scale`` defaults to each row's largest
    coefficient over the starting pieces.  Every starting piece is fitted
    once; each round replaces the failing pieces by their halves and fits
    only the halves, in one ``fit`` call, and pieces that pass are kept as
    they are.  A piece that still fails after 6 halvings is kept, with one
    :class:`AccuracyWarning` for the whole call.  Returns ``(lo, hi,
    coeffs)`` sorted by position.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    coeffs = fit(lo, hi)
    if scale is None:
        scale = np.max(np.abs(coeffs), axis=(-2, -1))
    bound = tol * np.asarray(scale)[..., None]
    kept = []
    for depth in range(_SPLIT_DEPTH + 1):
        over = np.max(np.abs(coeffs[..., -2:]), axis=-1) > bound
        bad = over.reshape(-1, len(lo)).any(axis=0)
        if depth == _SPLIT_DEPTH and bad.any():
            warnings.warn(f"{warn_label}: {bad.sum()} pieces in [{lo[bad].min():g}, "
                          f"{hi[bad].max():g}] not resolved at width "
                          f"{np.max(hi[bad] - lo[bad]):g}", AccuracyWarning)
            bad[:] = False
        kept.append((lo[~bad], hi[~bad], coeffs[..., ~bad, :]))
        if not bad.any():
            break
        mid = 0.5 * (lo[bad] + hi[bad])
        lo = np.stack([lo[bad], mid], axis=-1).ravel()
        hi = np.stack([mid, hi[bad]], axis=-1).ravel()
        coeffs = fit(lo, hi)
    lo, hi = (np.concatenate([part[i] for part in kept]) for i in (0, 1))
    coeffs = np.concatenate([part[2] for part in kept], axis=-2)
    order = np.argsort(lo)
    return lo[order], hi[order], coeffs[..., order, :]


# ---------------------------------------------------------------------------
# Filon panels with Legendre amplitude and spherical-Bessel moments
# ---------------------------------------------------------------------------

_FILON_NODES = 24
_FILON_DEG = 16
_FILON_TOL = 2e-11     # Legendre tail / the row's largest starting coefficient


# the 24 GL nodes, and the matrix (deg, nodes) taking amplitude values there
# to 16 Legendre coefficients
_FILON_X, _FILON_W = gl_rule(_FILON_NODES)
_FILON_PROJ = ((2.0 * np.arange(_FILON_DEG)[:, None] + 1.0) / 2.0
               * (npleg.legvander(_FILON_X, _FILON_DEG - 1).T * _FILON_W[None, :]))
# (2k + 1)!! for k = 0..15, each a product of odd numbers from 1 up
_ODD_FACTORIALS = np.array([np.multiply.reduce(np.arange(1, 2 * k + 2, 2, dtype=float))
                            for k in range(_FILON_DEG)])


def _sph_jn_table(z: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_k(z) for k = 0..15, vectorized over z >= 0.

    Three regimes: Taylor series near zero, Miller downward recurrence for
    moderate arguments (where upward recurrence loses digits), and upward
    recurrence for z beyond the largest order.
    """
    deg = _FILON_DEG
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.zeros((deg, flat.size))

    small = flat < 0.5
    mid = (~small) & (flat < deg + 2.0)
    big = flat >= deg + 2.0

    if np.any(small):
        # nine Taylor terms, every order at once: rows zs^k / (2k+1)!!
        zs = flat[small]
        half = 0.5 * zs * zs
        term = np.array([zs**k for k in range(deg)]) / _ODD_FACTORIALS[:, None]
        k = np.arange(deg)[:, None]
        acc = np.zeros_like(term)
        for m in range(9):
            acc += term
            term *= -half / ((m + 1) * (2.0 * (k + m) + 3.0))
        out[:, small] = acc

    if np.any(mid):
        zm = flat[mid]
        kk = deg + 48
        p_up = np.zeros_like(zm)
        p = np.full_like(zm, 1e-30)
        table = np.zeros((deg, zm.size))
        for k in range(kk, -1, -1):
            p_next = (2.0 * k + 3.0) / zm * p - p_up
            p_up, p = p, p_next
            if k < deg:
                table[k] = p
        j0 = np.sin(zm) / zm
        j1 = j0 / zm - np.cos(zm) / zm
        use0 = np.abs(j0) >= np.abs(j1)
        scale = np.where(use0, j0 / table[0], j1 / table[1])
        out[:, mid] = table * scale[None, :]

    if np.any(big):
        zb = flat[big]
        jm1 = np.cos(zb) / zb
        j0 = np.sin(zb) / zb
        out[0, big] = j0
        for k in range(1, deg):
            jnext = (2.0 * k - 1.0) / zb * j0 - jm1
            jm1, j0 = j0, jnext
            out[k, big] = j0
    return out.reshape((deg,) + z.shape)


def _bessel_moments(mu: np.ndarray) -> np.ndarray:
    """Moments m_k(mu) = int_{-1}^{1} P_k(x) exp(i mu x) dx = 2 i^k j_k(mu), k = 0..15."""
    mu = np.asarray(mu, dtype=float)
    sign = np.where(mu < 0.0, -1.0, 1.0)
    jk = _sph_jn_table(np.abs(mu))
    k = np.arange(_FILON_DEG).reshape((-1,) + (1,) * mu.ndim)
    return 2.0 * 1j ** k * sign[None, ...] ** k * jk


class FilonPanels:
    """Reusable linear-phase integrator for a fixed amplitude on [a, b].

    Build once, then evaluate int_a^b A(s) exp(i omega s) ds, a and b the
    ends of the increasing array ``breaks``, for whole arrays of frequencies;
    the amplitude is sampled only at construction.  The starting panels are
    [breaks[i], breaks[i + 1]], as in :func:`integrate_panels`.  They are
    refined by :func:`_split`: a panel is halved while its Legendre tail
    exceeds 2e-11 of the largest starting coefficient, so only the panels
    that fail are refined.

    ``amp`` maps a flat node array to values of shape ``lead + (nodes,)``.  If
    ``lead`` is not empty, each row is its own amplitude, judged against its
    own largest coefficient, and a panel is halved where any row fails, so a
    row never gets fewer panels than it has alone; ``integrate`` takes
    frequencies whose shape broadcasts against ``lead``.
    """

    def __init__(self, amp, breaks, warn_label: str = "filon"):
        self.amp = amp
        breaks = np.asarray(breaks, dtype=float)
        lo, hi, self.coeffs = _split(self._fit, breaks[:-1], breaks[1:], _FILON_TOL, warn_label)
        self.mid = 0.5 * (hi + lo)
        self.half = 0.5 * (hi - lo)

    def _fit(self, lo, hi):
        """Legendre coefficients, shape lead + (panels, deg), of the panels [lo, hi]."""
        nodes = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _FILON_X[None, :]
        vals = np.asarray(self.amp(nodes.ravel()), dtype=complex)
        return vals.reshape(vals.shape[:-1] + nodes.shape) @ _FILON_PROJ.T

    def integrate(self, omega):
        """Integral against exp(i omega s); omega scalar or array."""
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        mu = om[..., None] * self.half                 # om.shape + (n,)
        moments = _bessel_moments(mu)                  # (deg,) + om.shape + (n,)
        per_panel = np.einsum("...pk,k...p->...p", self.coeffs, moments)
        phase = np.exp(1j * om[..., None] * self.mid)
        out = np.sum(self.half * phase * per_panel, axis=-1)
        return out if np.ndim(omega) else complex(out[0])


# ---------------------------------------------------------------------------
# Chebyshev-weighted Filon on [-1, 1]: weight (1 - c^2)^(-1/2)
# ---------------------------------------------------------------------------

def filon_chebyshev(series: Chebyshev, mu: float) -> complex:
    """int_{-1}^1 f(c) exp(i mu c) (1-c^2)^(-1/2) dc for a Chebyshev series f on [-1, 1].

    The moments are pi i^k J_k(mu).
    """
    # imported here, as every scipy function is: import sympwave loads no scipy
    from scipy.special import jv
    coeffs = series.coef
    k = np.arange(len(coeffs))
    sign = -1.0 if mu < 0 else 1.0
    bess = jv(k, abs(mu)) * (sign**k)
    moments = np.pi * (1j**k) * bess
    return complex(np.sum(coeffs * moments))


def _cheb_coeffs_from_values(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the first-kind points of
    :func:`cheb_first_kind_points`, by one DCT-II (full weight on c0)."""
    # imported here, as every scipy function is: import sympwave loads no scipy
    from scipy.fft import dct
    coeffs = dct(vals, type=2) / len(vals)
    coeffs[0] *= 0.5
    return coeffs


def cheb_first_kind_points(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.cos(np.pi * (2.0 * j + 1.0) / (2.0 * n))


# ---------------------------------------------------------------------------
# one fit rule for Chebyshev proxies
# ---------------------------------------------------------------------------

_CHEB_TOL = 1e-11      # chopped tail / the series' largest coefficient


def cheb_fit(f, domain, label: str) -> Chebyshev:
    """Chebyshev series of ``f`` on ``domain``, at the first degree that resolves it.

    ``f`` is sampled at the deg + 1 first-kind points of degree 16, 32, ...,
    4096 in turn, and the first degree whose last three coefficients are all
    at most 1e-11 of the largest is kept, with its trailing coefficients
    below that bound dropped (after Aurentz & Trefethen, "Chopping a
    Chebyshev series", 2017); a polynomial comes back at its own degree.
    ``f`` takes an array of points and returns real or complex values.
    Raises :class:`~sympwave.errors.ResolutionError`, naming ``label``, the
    degree and the tail, if degree 4096 does not resolve ``f``.
    """
    lo, hi = map(float, domain)
    deg = 16
    while True:
        pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * cheb_first_kind_points(deg + 1)
        coeffs = _cheb_coeffs_from_values(np.asarray(f(pts)))
        mag = np.abs(coeffs)
        bound = _CHEB_TOL * mag.max()
        if mag[-3:].max() <= bound:
            keep = np.flatnonzero(mag > bound).max(initial=0) + 1
            return Chebyshev(coeffs[:keep], domain=[lo, hi])
        if deg >= 4096:
            raise ResolutionError(f"{label}: Chebyshev tail {mag[-3:].max():.2e} of a "
                                  f"largest coefficient {mag.max():.2e} at degree {deg}")
        deg *= 2


# ---------------------------------------------------------------------------
# many Chebyshev series at one node set
# ---------------------------------------------------------------------------

_CHEB_BLOCK = 1 << 18  # Vandermonde entries per block of nodes (2 MB)
# leading coefficients summed apart from the rest: one running sum over the
# ~500 coefficients of an a2 proxy at r = 10 rounds past 8 eps sum|c_k|, two
# sums stay within 0.6 of that to degree 1474
_CHEB_HEAD = 64


def cheb_series_blocks(series, x):
    """Every series of ``series`` at the nodes ``x``, one block of nodes at a time.

    ``series`` are numpy ``Chebyshev`` objects on one domain, with real or
    complex coefficients.  Yields ``(block, values)`` for consecutive slices
    ``block`` of the nodes, 2^18 Vandermonde entries' worth each, where
    ``values[i, j]`` is ``series[j]`` at ``x[block][i]``, complex.  Each
    block is one Chebyshev-Vandermonde matrix V, built by the three-term
    recurrence, times one stacked real matrix C whose columns are the
    zero-padded real and imaginary parts of each series' coefficients, the
    first 64 coefficients and the rest in two sums; that replaces one
    Clenshaw recurrence per series.  The product is taken node by node (a
    vector-matrix product per row of V; one matrix product ``V @ C`` would
    round a batch differently from a single node), so for a given ``series``
    a node gets the same bits in any block or batch.
    """
    domain = series[0].domain
    if any(not np.array_equal(s.domain, domain) for s in series):
        raise ValueError("Chebyshev series of one evaluation must share a domain")
    off, scl = series[0].mapparms()
    deg = max(len(s.coef) for s in series)
    coef = np.zeros((deg, len(series)), dtype=complex)
    for j, s in enumerate(series):
        coef[: len(s.coef), j] = s.coef
    stacked = np.ascontiguousarray(coef.view(float))      # Re, Im column pairs
    x = np.asarray(x, dtype=float)
    size = max(1, _CHEB_BLOCK // deg)
    for lo in range(0, len(x), size):
        block = slice(lo, lo + size)
        t = off + scl * x[block]
        vander = np.empty((deg, len(t)))
        vander[0] = 1.0
        if deg > 1:
            vander[1] = t
        two_t = 2.0 * t
        for k in range(2, deg):
            np.multiply(two_t, vander[k - 1], out=vander[k])
            vander[k] -= vander[k - 2]
        rows = np.ascontiguousarray(vander.T)[:, None, :]
        vals = np.matmul(rows[..., :_CHEB_HEAD], stacked[:_CHEB_HEAD])
        if deg > _CHEB_HEAD:
            vals = vals + np.matmul(rows[..., _CHEB_HEAD:], stacked[_CHEB_HEAD:])
        yield block, vals[:, 0, :].view(complex)


# ---------------------------------------------------------------------------
# Lazy piecewise-Chebyshev table on unit chunks
# ---------------------------------------------------------------------------

_TABLE_DEG = 24
_TABLE_TOL = 1e-13
_TABLE_BLOCK = 4096    # points per Clenshaw pass of a lookup
_TABLE_POINTS = cheb_first_kind_points(_TABLE_DEG + 1)


class ChebTable:
    """Piecewise-Chebyshev interpolant of a smooth vectorized function on the line.

    The line is cut into unit chunks [k, k + 1), k an integer.  A chunk is
    built the first time a lookup falls in it: ``f`` is sampled at the 25
    first-kind Chebyshev points of the chunk, and :func:`_split` halves a
    piece, down to 1/64 width, while either of its last two coefficients
    exceeds ``1e-13 * scale``; a chunk with pieces still unresolved at that
    width emits one :class:`AccuracyWarning`.  Each piece comes from its own
    call of ``f`` on exactly 25 points, so its coefficients are the same
    whichever thread or lookup builds it; building is serialized by a lock.
    A lookup runs over blocks of 4096 points: each block finds its pieces
    and local coordinates and runs the Clenshaw recurrence in three
    preallocated complex buffers, so no array but the result grows with the
    lookup.  A non-finite argument is a ValueError, before any chunk is
    built.

    ``_flat`` is the one record of built pieces: the chunks' left ends k, and
    the pieces' left ends, midpoints, half-widths and coefficients by degree
    (25, pieces), all sorted; a lookup that misses chunks builds them and
    merges their pieces in once, under the lock.
    """

    def __init__(self, f, scale: float, warn_label: str = "table"):
        self.f = f
        self.scale = float(scale)
        self.warn_label = warn_label
        self._lock = threading.Lock()
        self._flat = (np.empty(0), np.empty(0), np.empty(0), np.empty(0),
                      np.empty((_TABLE_DEG + 1, 0), dtype=complex))

    def _fit(self, lo, hi):
        """Coefficients, shape (pieces, 25), of the pieces [lo, hi], one call of f each."""
        return np.array([_cheb_coeffs_from_values(np.asarray(
            self.f(0.5 * (a + b) + 0.5 * (b - a) * _TABLE_POINTS), dtype=complex))
            for a, b in zip(lo, hi)])

    def _pieces(self, xs: np.ndarray, lo: float, hi: float):
        """The flat piece arrays, after building every chunk that ``xs`` falls
        in; ``lo`` and ``hi`` are the least and the largest of ``xs``."""
        flat = self._flat
        built = flat[0]
        # warm path: the chunks from floor(min) to floor(max) form one built run
        lo, hi = np.floor(lo), np.floor(hi)
        i, j = np.searchsorted(built, (lo, hi))
        if j < len(built) and built[i] == lo and built[j] == hi and j - i == hi - lo:
            return flat
        with self._lock:
            flat = self._flat
            need = np.setdiff1d(np.floor(xs), flat[0])
            if not need.size:
                return flat
            # each chunk is split on its own, with its own warning
            parts = [_split(self._fit, [k], [k + 1.0], _TABLE_TOL, self.warn_label,
                            scale=self.scale) for k in need]
            lo, hi, coeffs = (np.concatenate(part) for part in zip(*parts))
            new = (lo, 0.5 * (lo + hi), 0.5 * (hi - lo), coeffs.T)
            order = np.argsort(np.concatenate([flat[1], lo]))
            self._flat = (np.union1d(flat[0], need),
                          *(np.concatenate([old, add], axis=-1).take(order, axis=-1)
                            for old, add in zip(flat[1:], new)))
            return self._flat

    def __call__(self, v):
        """Table value at ``v`` (scalar or array, same shape out)."""
        varr = np.asarray(v, dtype=float)
        x = varr.ravel()
        if not x.size:
            return np.empty(varr.shape, dtype=complex)
        lo, hi = x.min(), x.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"{self.warn_label}: table arguments must be finite")
        out = self._values(x, lo, hi)
        return out.reshape(varr.shape) if varr.ndim else complex(out[0])

    def _values(self, xs, lo, hi):
        """The table at the finite points ``xs``, whose least and largest are lo and hi."""
        _, lefts, mids, halves, coeffs = self._pieces(xs, lo, hi)
        vals = np.empty(xs.shape, dtype=complex)
        # each block forms its own piece indices, local coordinates and
        # gathered coefficients (25 x _TABLE_BLOCK), so none grows with xs
        for start in range(0, xs.size, _TABLE_BLOCK):
            blk = slice(start, start + _TABLE_BLOCK)
            j = np.searchsorted(lefts, xs[blk], side="right") - 1
            ur = 2.0 * (xs[blk] - mids[j]) / halves[j]
            cj, ub = coeffs[:, j], ur.astype(complex)
            b1, b2, tmp = (np.zeros(ub.shape, dtype=complex) for _ in range(3))
            for c in cj[:0:-1]:  # Clenshaw, b1, b2 = c + ub b1 - b2, b1, in place
                np.multiply(ub, b1, out=tmp)
                tmp += c
                tmp -= b2
                b1, b2, tmp = tmp, b1, b2
            vals[blk] = cj[0] + 0.5 * ur * b1 - b2
        return vals
