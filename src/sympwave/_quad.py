"""Quadrature engines shared by the oscillatory-integral modules.

Three engines cover everything in the package:

* half-period panel subdivision with fixed-order Gauss-Legendre inside each
  panel, the order doubled until self-consistent (for phases resolved by the
  panel grid);
* Filon panels for linear phases of arbitrary frequency: the amplitude is
  Legendre-projected per panel and the moments int P_k(x) e^(i mu x) dx
  = 2 i^k j_k(mu) are exact spherical-Bessel values, so the panel count only
  has to resolve the amplitude, never the oscillation;
* a lazy piecewise-Chebyshev table for a smooth function of one variable
  that is read at very many points, such as a Filon transform read at every
  node of an outer quadrature: unit-width chunks of degree 24 are built on
  first use, halved where the function varies fast, and then cost one
  Clenshaw recurrence per point.

A Chebyshev variant with weight (1-c^2)^(-1/2) and ordinary Bessel moments
int T_k(c) e^(i mu c) (1-c^2)^(-1/2) dc = pi i^k J_k(mu) handles the folded
circle integrals in rank 2.
"""

from __future__ import annotations

import threading
import warnings
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.special import jv


class AccuracyWarning(UserWarning):
    """Raised when panel refinement stops before reaching the target."""


@lru_cache(maxsize=None)
def gl_rule(order: int):
    x, w = npleg.leggauss(order)
    return x, w


def gl_panels_nodes(breaks: np.ndarray, order: int):
    """Nodes and weights for composite Gauss-Legendre on given breakpoints."""
    x, w = gl_rule(order)
    a = breaks[:-1, None]
    b = breaks[1:, None]
    nodes = 0.5 * (b - a) * (x[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def integrate_panels(f, breaks, order0: int = 16, tol: float = 1e-10,
                     max_order: int = 256, warn_label: str = "integral",
                     floor_rel: float = 1e-14):
    """Composite GL with order doubling until two levels agree.

    ``f`` must accept a flat array of nodes and return values (complex ok).
    Relative tolerance is measured against the finer level, with an absolute
    floor of ``floor_rel`` times the total integrand mass for results that
    are small through cancellation.
    """
    breaks = np.asarray(breaks, dtype=float)
    order = order0
    nodes, weights = gl_panels_nodes(breaks, order)
    fv = f(nodes)
    prev = np.sum(fv * weights)
    scale = float(np.sum(np.abs(fv) * np.abs(weights)))  # cancellation-aware floor
    cur = prev
    residual = 0.0
    while order < max_order:
        order *= 2
        nodes, weights = gl_panels_nodes(breaks, order)
        cur = np.sum(f(nodes) * weights)
        residual = abs(cur - prev)
        if residual <= tol * abs(cur) + floor_rel * scale + 1e-300:
            return cur
        prev = cur
    warnings.warn(f"{warn_label}: panel refinement hit order {max_order} "
                  f"with residual {residual:.2e}", AccuracyWarning)
    return cur


def halfperiod_breaks(total_phase: float, a: float, b: float, invert=None,
                      max_panels: int = 200000) -> np.ndarray:
    """Breakpoints splitting [a, b] so each panel spans <= pi of phase.

    ``invert`` maps a phase fraction in [0, 1] to the abscissa; when omitted
    the phase is assumed linear on [a, b].
    """
    n = max(1, min(max_panels, int(np.ceil(abs(total_phase) / np.pi))))
    fracs = np.linspace(0.0, 1.0, n + 1)
    if invert is None:
        return a + (b - a) * fracs
    pts = np.array([invert(t) for t in fracs])
    pts[0], pts[-1] = a, b
    return pts


# ---------------------------------------------------------------------------
# Filon panels with Legendre amplitude and spherical-Bessel moments
# ---------------------------------------------------------------------------

_FILON_NODES = 24
_FILON_DEG = 16


@lru_cache(maxsize=None)
def _filon_projection(nodes: int, deg: int):
    """Matrix taking amplitude values at GL nodes to Legendre coefficients."""
    x, w = gl_rule(nodes)
    P = np.polynomial.legendre.legvander(x, deg - 1)  # (nodes, deg)
    k = np.arange(deg)
    proj = (2.0 * k[:, None] + 1.0) / 2.0 * (P.T * w[None, :])  # (deg, nodes)
    return x, proj


def _sph_jn_table(z: np.ndarray, deg: int) -> np.ndarray:
    """Spherical Bessel j_k(z) for k = 0..deg-1, vectorized over z >= 0.

    Three regimes: Taylor series near zero, Miller downward recurrence for
    moderate arguments (where upward recurrence loses digits), and upward
    recurrence for z beyond the largest order.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.zeros((deg, flat.size))

    small = flat < 0.5
    mid = (~small) & (flat < deg + 2.0)
    big = flat >= deg + 2.0

    if np.any(small):
        zs = flat[small]
        half = 0.5 * zs * zs
        for k in range(deg):
            dfact = np.multiply.reduce(np.arange(1, 2 * k + 2, 2, dtype=float)) or 1.0
            term = zs**k / dfact
            acc = np.zeros_like(zs)
            for m in range(9):
                acc += term
                term *= -half / ((m + 1) * (2.0 * (k + m) + 3.0))
            out[k, small] = acc

    if np.any(mid):
        zm = flat[mid]
        kk = deg + 48
        p_up = np.zeros_like(zm)
        p = np.full_like(zm, 1e-30)
        table = np.zeros((max(deg, 2), zm.size))
        for k in range(kk, -1, -1):
            p_next = (2.0 * k + 3.0) / zm * p - p_up
            p_up, p = p, p_next
            if k < max(deg, 2):
                table[k] = p
        j0 = np.sin(zm) / zm
        j1 = j0 / zm - np.cos(zm) / zm
        use0 = np.abs(j0) >= np.abs(j1)
        scale = np.where(use0, j0 / table[0], j1 / table[1])
        out[:, mid] = table[:deg] * scale[None, :]

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


def _bessel_moments(mu: np.ndarray, deg: int) -> np.ndarray:
    """Moments m_k(mu) = int_{-1}^{1} P_k(x) exp(i mu x) dx = 2 i^k j_k(mu)."""
    mu = np.asarray(mu, dtype=float)
    sign = np.where(mu < 0.0, -1.0, 1.0)
    z = np.abs(mu)
    jk = _sph_jn_table(z, deg)
    k = np.arange(deg).reshape((deg,) + (1,) * mu.ndim)
    phase = (2.0 * 1j ** np.arange(deg)).reshape((deg,) + (1,) * mu.ndim)
    return phase * sign[None, ...] ** k * jk


class FilonPanels:
    """Reusable linear-phase integrator for a fixed amplitude on [a, b].

    Build once, then evaluate int_a^b A(s) exp(i omega s) ds for whole arrays
    of frequencies; the amplitude is sampled only at construction.
    """

    def __init__(self, amp, a: float, b: float, n_panels: int = 24,
                 tol: float = 2e-11, max_panels: int = 384,
                 warn_label: str = "filon"):
        self.a, self.b = float(a), float(b)
        self.amp = amp
        n = max(2, n_panels)
        while True:
            self._build(n)
            if self._resolved(tol) or n >= max_panels:
                break
            n *= 2
        if n >= max_panels and not self._resolved(tol):
            warnings.warn(f"{warn_label}: amplitude not resolved at {n} panels",
                          AccuracyWarning)

    def _build(self, n: int):
        breaks = np.linspace(self.a, self.b, n + 1)
        x, proj = _filon_projection(_FILON_NODES, _FILON_DEG)
        mid = 0.5 * (breaks[1:] + breaks[:-1])
        half = 0.5 * (breaks[1:] - breaks[:-1])
        nodes = mid[:, None] + half[:, None] * x[None, :]  # (n, nodes)
        vals = np.asarray(self.amp(nodes.ravel()), dtype=complex).reshape(n, _FILON_NODES)
        self.coeffs = vals @ proj.T  # (n, deg) Legendre coefficients per panel
        self.mid = mid
        self.half = half

    def _resolved(self, tol: float) -> bool:
        scale = np.max(np.abs(self.coeffs)) + 1e-300
        tail = np.max(np.abs(self.coeffs[:, -2:]))
        return tail <= tol * scale

    def integrate(self, omega):
        """Integral against exp(i omega s); omega scalar or array."""
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        mu = om[:, None] * self.half[None, :]          # (nw, n)
        moments = _bessel_moments(mu, _FILON_DEG)      # (deg, nw, n)
        per_panel = np.einsum("pk,kwp->wp", self.coeffs, moments)
        phase = np.exp(1j * om[:, None] * self.mid[None, :])
        out = np.sum(self.half[None, :] * phase * per_panel, axis=1)
        return out if np.ndim(omega) else complex(out[0])


# ---------------------------------------------------------------------------
# Chebyshev-weighted Filon on [-1, 1]: weight (1 - c^2)^(-1/2)
# ---------------------------------------------------------------------------

def filon_chebyshev(fvals_at_chebpts, mu: float, deg: int) -> complex:
    """int_{-1}^1 f(c) exp(i mu c) (1-c^2)^(-1/2) dc from Chebyshev samples.

    ``fvals_at_chebpts`` are values at the first-kind points cos(pi (2j+1)/2n)
    with n = deg + 1; moments are pi i^k J_k(mu).
    """
    n = len(fvals_at_chebpts)
    coeffs = _cheb_coeffs_from_values(np.asarray(fvals_at_chebpts, dtype=complex))
    k = np.arange(n)
    sign = -1.0 if mu < 0 else 1.0
    bess = jv(k, abs(mu)) * (sign**k)
    moments = np.pi * (1j**k) * bess
    return complex(np.sum(coeffs * moments))


def _cheb_coeffs_from_values(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at first-kind points (full weight on c0)."""
    n = len(vals)
    j = np.arange(n)
    theta = np.pi * (2.0 * j + 1.0) / (2.0 * n)
    k = np.arange(n)
    T = np.cos(np.outer(k, theta))
    coeffs = (2.0 / n) * (T @ vals)
    coeffs[0] *= 0.5
    return coeffs


def cheb_first_kind_points(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.cos(np.pi * (2.0 * j + 1.0) / (2.0 * n))


# ---------------------------------------------------------------------------
# Lazy piecewise-Chebyshev table on unit chunks
# ---------------------------------------------------------------------------

_TABLE_DEG = 24
_TABLE_TOL = 1e-13
_TABLE_DEPTH = 6
_TABLE_POINTS = cheb_first_kind_points(_TABLE_DEG + 1)


class ChebTable:
    """Piecewise-Chebyshev interpolant of a smooth vectorized function on the line.

    The line is cut into unit chunks [k, k + 1), k an integer.  A chunk is
    built the first time a lookup falls in it: ``f`` is sampled at the 25
    first-kind Chebyshev points of the chunk, and the chunk is halved, down
    to 1/64 width, while either of its last two coefficients exceeds
    ``1e-13 * scale``.  A piece that is still unresolved at that width emits
    an :class:`AccuracyWarning`.  Each piece comes from its own call of ``f``
    on exactly 25 points, so its coefficients are the same whichever thread
    or lookup builds it; building is serialized by a lock.  Non-finite
    arguments give NaN.

    ``chunks`` maps each built chunk's left end k to its pieces, a tuple of
    (left ends, midpoints, half-widths, coefficients of shape (pieces, 25)).
    """

    def __init__(self, f, scale: float, warn_label: str = "table"):
        self.f = f
        self.scale = float(scale)
        self.warn_label = warn_label
        self.chunks = {}
        self._lock = threading.Lock()
        # (built chunk keys, piece left ends, midpoints, half-widths,
        # coefficients by degree (25, pieces)), all sorted by position
        self._flat = (np.empty(0), np.empty(0), np.empty(0), np.empty(0),
                      np.empty((_TABLE_DEG + 1, 0), dtype=complex))

    def _build_chunk(self, k: float):
        lefts, mids, halves, coeffs = [], [], [], []
        stack = [(k, k + 1.0, 0)]
        while stack:
            a, b, depth = stack.pop()
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            vals = np.asarray(self.f(mid + half * _TABLE_POINTS), dtype=complex)
            c = _cheb_coeffs_from_values(vals)
            if np.max(np.abs(c[-2:])) > _TABLE_TOL * self.scale:
                if depth < _TABLE_DEPTH:
                    stack.append((mid, b, depth + 1))
                    stack.append((a, mid, depth + 1))
                    continue
                warnings.warn(f"{self.warn_label}: piece [{a:g}, {b:g}] not resolved "
                              f"at width {b - a:g}", AccuracyWarning)
            lefts.append(a)
            mids.append(mid)
            halves.append(half)
            coeffs.append(c)
        return np.array(lefts), np.array(mids), np.array(halves), np.array(coeffs)

    def _pieces(self, keys: np.ndarray):
        """The flat piece arrays, after building every chunk named in ``keys``."""
        flat = self._flat
        need = np.unique(keys)
        pos = np.searchsorted(flat[0], need)
        if pos[-1] < len(flat[0]) and np.array_equal(flat[0][pos], need):
            return flat
        with self._lock:
            for k in need:
                if float(k) not in self.chunks:
                    self.chunks[float(k)] = self._build_chunk(float(k))
            order = sorted(self.chunks)
            parts = [self.chunks[k] for k in order]
            self._flat = (np.array(order),
                          *(np.concatenate([p[i] for p in parts]) for i in range(3)),
                          np.concatenate([p[3] for p in parts]).T.copy())
            return self._flat

    def __call__(self, v):
        """Table value at ``v`` (scalar or array, same shape out)."""
        varr = np.asarray(v, dtype=float)
        x = varr.ravel()
        out = np.full(x.shape, np.nan, dtype=complex)
        ok = np.isfinite(x)
        xs = x[ok]
        if xs.size:
            _, lefts, mids, halves, coeffs = self._pieces(np.floor(xs))
            j = np.searchsorted(lefts, xs, side="right") - 1
            u2 = 2.0 * (xs - mids[j]) / halves[j]
            cj = coeffs[:, j]
            b1 = b2 = 0.0
            for c in cj[:0:-1]:  # Clenshaw
                b1, b2 = c + u2 * b1 - b2, b1
            out[ok] = cj[0] + 0.5 * u2 * b1 - b2
        return out.reshape(varr.shape) if varr.ndim else complex(out[0])
