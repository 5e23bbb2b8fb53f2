"""Endpoint stationary phase with exact remainders.

For I(x) = int_a^b g(t) exp(i x f(t)) dt with f increasing and critical only
at the left endpoint (f - f(a) vanishing to order p there), the substitution
u^p = f(t) - f(a) turns the integral into int_0^B q(u) exp(i x u^p) du with
q = g(t(u)) t'(u).  Extending q smoothly to a compactly supported function
splits this into a half-line piece I1, integrated by parts against contour
functions k_n, and a tail piece I2 with boundary terms at u = B.  Both series
come with remainder formulas that are identities, not asymptotics, so the
assembled total matches direct quadrature to quadrature accuracy for every x.

The extension is pinned down concretely: q is continued by the same formula
past B (the phase keeps increasing a little beyond b) and multiplied by a
fixed smooth cutoff equal to 1 below sqrt(3/2) B and 0 above sqrt(7/4) B.
Both extended amplitudes are :class:`~sympwave.profiles.CutoffProduct`s, so
their derivatives at the remainder-quadrature nodes are vectorized jets.
The total is extension-independent; the individual remainder values are not.
:func:`extend_amplitude` is the one place this rule lives, for
:func:`amplitude_data` and for the sphere poles of
:class:`~sympwave.model_integral.QFamily`.

:func:`remainder_integrals` is the one place the two remainder integrals are
evaluated, here and for the two sphere poles of
:func:`~sympwave.model_integral.xi_decompose`: R1 on Gauss-Legendre panels
laid out by the cutoff and by the phase x u^p (at most four periods of k_n a
panel), R2 by Filon panels, both one row per amplitude.  At each node set,
R1's integrand and R2's Filon amplitude are one
:func:`~sympwave.profiles.cutoff_product_derivs` call for all amplitudes.

The contour functions :func:`k_n` are closed forms for p = 1 (an
exponential) and p = 2 (a scaled repeated integral of erfc, Abramowitz &
Stegun 7.2, by forward recurrence or by Miller's backward recurrence after
Gautschi 1961).  Only p = 3 and p = 4 integrate along the ray.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from math import gamma as real_gamma

import numpy as np

from ._quad import (MAX_PANELS, FilonPanels, build_once, cheb_fit, gl_panels_nodes,
                    halfperiod_breaks, integrate_panels)
from .errors import OutOfRangeError, ResolutionError, UsageError
from .profiles import CutoffProduct, SmoothCutoff, cutoff_product_derivs

_GRID_CHECK = 1000
# the orders R1's first pass takes, 16, 32 and 64: most R1 integrals
# stop at order 64 (45 of the 48 in seed-3 passes of the xi and stphase
# benchmarks, the rest at 128), so a first call of orders 16 and 32 alone was
# one call more.  Order 32 does stop some (a q^(N+1) that is proxy noise,
# N = 9 at x >= 1e4, p = 3 and 4 at x = 1e3), and order 16's mass sets the
# floor of every later level, so starting at order 32 instead would move the
# bits of those and of some N >= 7 results
_R1_FIRST_ORDERS = 3


@dataclass
class PhaseProblem:
    """A 1-D oscillatory integral (f, g, p, [a, b]) with endpoint phase degeneracy.

    ``f`` must be increasing on (a, b) and, for the amplitude extension, keep
    increasing slightly beyond b.  ``fprime``/``fsecond`` evaluate f' and f''.

    Array contract: each callable takes a numpy array of t and returns its
    values elementwise, in an array of the same shape; ``g``, ``fprime`` and
    ``fsecond`` may return one scalar where they are constant, which is
    broadcast.  A value must depend only on its own t.  The monotonicity
    check makes one array call of each callable and raises
    :class:`~sympwave.errors.UsageError` for one that rejects arrays.
    """

    a: float
    b: float
    p: int
    f: callable
    fprime: callable
    fsecond: callable
    g: callable

    def __post_init__(self):
        if not self.a < self.b:
            raise UsageError("need a < b")
        if self.p < 1 or self.p > 4:
            raise UsageError("phase degeneracy p must be in 1..4")
        ts = np.linspace(self.a, self.b, _GRID_CHECK)
        try:
            vals, *_ = [np.broadcast_to(fn(ts), ts.shape)
                        for fn in (self.f, self.fprime, self.fsecond, self.g)]
        except (TypeError, ValueError) as exc:
            raise UsageError("f, fprime, fsecond and g must take a numpy array of t "
                             f"and return its values elementwise: {exc}") from None
        if not np.all(np.diff(vals) > 0.0):
            raise UsageError("phase is not finite and strictly increasing on (a, b)")
        self.fa = float(vals[0])
        self.fb = float(vals[-1])
        self.B = (self.fb - self.fa) ** (1.0 / self.p)
        # leading coefficient f1(a) of f - f(a) = (t-a)^p f1(t) must not vanish
        eps = 1e-4 * (self.b - self.a)
        lead = (self.f(self.a + eps) - self.fa) / eps**self.p
        if abs(lead) < 1e-10:
            raise UsageError("phase vanishes to higher order than p at the endpoint")


def invert_phase(problem: PhaseProblem, u):
    """Solve f(t) - f(a) = u^p for t in [a, b], elementwise.

    ``u`` may be a scalar, for which a float is returned, or an array; each
    t depends only on its own u, so an array call equals the per-point calls
    bit for bit.  Raises :class:`~sympwave.errors.OutOfRangeError` unless
    every u lies in [0, B (1 + 1e-12)]; u past B is clipped to B.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr >= 0.0) & (u_arr <= problem.B * (1.0 + 1e-12))):
        raise OutOfRangeError(f"u = {u} outside [0, B = {problem.B}]")
    t = _invert_extended(problem, np.minimum(u_arr, problem.B))
    return t if np.ndim(u) else float(t[0])


def _invert_extended(problem: PhaseProblem, u) -> np.ndarray:
    """Phase inversion allowing u slightly past B (f continued beyond b).

    Returns a 1-D array for any ``u``.  Each point is bisected on [a, b] or,
    past b, on [b, hi], where hi steps beyond b by (b - a)/4 until f reaches
    that point's own target (OutOfRangeError if f stops increasing there).
    As in scipy's ``bisect``, a point stops when f hits its target or its
    bracket is narrower than brentq's tolerances, 1e-15 + 8.9e-16 |t|, and
    its t is the last midpoint.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    target = problem.fa + u**problem.p
    lo = np.where(target > problem.fb, problem.b, problem.a)
    hi, f_hi = np.full(u.shape, problem.b), np.full(u.shape, problem.fb)
    grow = np.flatnonzero(target > problem.fb)
    for _ in range(64):
        if not grow.size:
            break
        nxt = hi[grow] + 0.25 * (problem.b - problem.a)
        f_nxt = problem.f(nxt)
        if not np.all(f_nxt > f_hi[grow]):
            raise OutOfRangeError(
                "phase stops increasing before the amplitude extension is covered")
        hi[grow], f_hi[grow] = nxt, f_nxt
        grow = grow[f_nxt < target[grow]]
    if grow.size:
        raise OutOfRangeError("could not continue the phase far enough past b")
    t = np.full(u.shape, problem.a)
    live = np.flatnonzero(u != 0.0)
    lo, hi, target = lo[live], hi[live], target[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        r = problem.f(mid) - target
        if not np.all(np.isfinite(r)):
            raise OutOfRangeError("phase is not finite where it is inverted")
        lo, hi = np.where(r < 0.0, mid, lo), np.where(r < 0.0, hi, mid)
        done = (r == 0.0) | (hi - lo < 1e-15 + 8.9e-16 * np.abs(mid))
        t[live[done]] = mid[done]
        live, lo, hi, target = (v[~done] for v in (live, lo, hi, target))
    return t


# ---------------------------------------------------------------------------
# contour functions k_n
# ---------------------------------------------------------------------------

def _check_contour_args(n, x, p):
    """Raise UsageError unless n is an integer >= 1, x finite and positive,
    and p an integer in 1..4."""
    def is_int(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if not (is_int(n) and n >= 1):
        raise UsageError(f"contour function order n must be an integer >= 1, got {n!r}")
    if not (is_int(p) and 1 <= p <= 4):
        raise UsageError(f"phase degeneracy p must be an integer in 1..4, got {p!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise UsageError(f"frequency x must be finite and positive, got {x!r}")


def k_n(n: int, u, x: float, p: int):
    """Contour function along the ray arg(z - u) = pi/(2p).

    k_n(u) = (-1)^n/(n-1)! * int (z-u)^(n-1) exp(i x z^p) dz over the ray;
    ``u`` may be an array.  Satisfies |k_n(u)| <= Gamma(n/p) x^(-n/p) / ((n-1)! p).

    p = 1 and p = 2 are closed forms:

    - p = 1: k_n(u) = (-1)^n i^n e^{ixu} x^(-n);
    - p = 2: k_n(u) = (-1)^n (e^{i pi/4}/sqrt(x))^n (sqrt(pi)/2) e^{ixu^2} E_{n-1}(z0)
      with z0 = sqrt(x/2) u (1 - i) and E_k(z) = e^{z^2} i^k erfc(z), the scaled
      repeated integral of erfc (Abramowitz & Stegun 7.2), see :func:`_scaled_ierfc`.

    p = 3 and p = 4 integrate along the ray, see :func:`_k_n_ray`.  Each
    value depends only on its own u, never on the other entries of an array.
    """
    _check_contour_args(n, x, p)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(u_arr)):
        raise UsageError("contour function argument u must be finite")
    if p == 1:
        vals = (-1j / x) ** n * _exp_i_x_upow(x, u_arr, 1)
    elif p == 2:
        lead = (-np.exp(0.25j * np.pi) / math.sqrt(x)) ** n * (0.5 * math.sqrt(math.pi))
        z0 = (math.sqrt(0.5 * x) * u_arr) * (1.0 - 1.0j)
        vals = lead * _exp_i_x_upow(x, u_arr, 2) * _scaled_ierfc(n - 1, z0)
    else:
        vals = _k_n_ray(n, u_arr, x, p)
    return vals if np.ndim(u) else complex(vals[0])


def _exp_i_x_upow(x: float, u: np.ndarray, p: int) -> np.ndarray:
    """e^{i x u^p} for p = 1 or 2, with x u^p formed without rounding error.

    Rounding x u^p to double moves the phase by up to 4e-12 at x u^p ~ 2e4;
    for p = 1, where |k_n| is the bound itself, that is a 4e-12 error of the
    bound, far above k_n's other errors.  So x u^p is carried as hi + lo by
    Dekker's exact product, and e^{i lo} = 1 + i lo to double precision,
    since |lo| is about an ulp of hi.
    """
    hi, lo = _two_product(x, u)
    if p == 2:
        hi, lo2 = _two_product(hi, u)
        lo = lo2 + lo * u
    return np.exp(1j * hi) * (1.0 + 1j * lo)


def _two_product(a, b):
    """a * b as its rounded value and the exact rounding error (Dekker 1971)."""
    def split(v):
        c = 134217729.0 * v       # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi
    prod = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return prod, ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled_ierfc(k: int, z: np.ndarray) -> np.ndarray:
    """E_k(z) = e^{z^2} i^k erfc(z) for k >= 0, elementwise.

    E_{-1} = 2/sqrt(pi), E_0 = w(iz) (Faddeeva), and
    E_j = (E_{j-2} - 2 z E_{j-1}) / (2j).  That recurrence is run forward
    where |z| < 2, which loses few digits, or Re z <= 0, where E_k is its
    dominant solution.  Elsewhere E_k is the minimal solution, and forward
    recursion loses about log10(2|z|^2) digits a step, so the ratios
    r_j = E_j/E_{j-1} = 1/(2z + 2(j+1) r_{j+1}) are run backward from
    r = 0 above a start index (Miller's algorithm, Gautschi 1961,
    "Recursive computation of the repeated integrals of the error
    function"), and E_k = E_0 r_1 ... r_k.  The start index is chosen per
    point from |z| and k alone.  On arg z = -pi/4, where u > 0 puts z, it
    gives r_1..r_k to 3e-16 relative against 160-digit values, for k <= 14
    and |z| from 2 to 1e4.

    The points are sorted by descending start, so the points still
    recurring at step j are a prefix, and one ``searchsorted`` gives every
    step's prefix length.  Each step runs in place on that prefix, in two
    reused buffers, with the ufuncs of ``1 / (2z + 2(j+1) r)`` in that
    order; every point therefore gets the bits it has alone.
    """
    # imported here, as every scipy function is: import sympwave loads no scipy
    from scipy.special import wofz
    e0 = wofz(1j * z)
    if k == 0:
        return e0
    out = np.empty_like(e0)
    fwd = (np.abs(z) < 2.0) | (z.real <= 0.0)
    zf = z[fwd]
    prev, cur = np.full(zf.shape, 2.0 / math.sqrt(math.pi), dtype=complex), e0[fwd]
    for j in range(1, k + 1):
        prev, cur = cur, (prev - 2.0 * zf * cur) / (2 * j)
    out[fwd] = cur

    bwd = np.flatnonzero(~fwd)
    if len(bwd):
        start = k + 7 + np.ceil((600.0 + 40.0 * k) / np.abs(z[bwd]) ** 2).astype(int)
        # by descending start index, the points still recurring at step j are a prefix
        order = np.argsort(-start, kind="stable")
        bwd, neg_start = bwd[order], -start[order]
        two_z = 2.0 * z[bwd]
        r, tmp = np.zeros(two_z.shape, dtype=complex), np.empty(two_z.shape, dtype=complex)
        prod = np.ones(two_z.shape, dtype=complex)
        steps = np.arange(start.max(), 0, -1)
        lives = np.searchsorted(neg_start, -steps, side="right").tolist()
        for j, live in zip(steps.tolist(), lives):
            # r = 1 / (2 z + 2 (j + 1) r) on the live prefix, in place
            rl, tl = r[:live], tmp[:live]
            np.multiply(2 * (j + 1), rl, out=tl)
            np.add(two_z[:live], tl, out=tl)
            np.divide(1.0, tl, out=rl)
            if j <= k:
                # not in place: numpy's in-place complex *= rounds long and
                # length-1 arrays differently
                prod = prod * r
        out[bwd] = e0[bwd] * prod
    return out


_RAY_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-12.0, 0.1)])   # times zeta_max


def _k_n_ray(n: int, u_arr: np.ndarray, x: float, p: int) -> np.ndarray:
    """k_n by Gauss-Legendre quadrature along the ray, for any p in 1..4;
    :func:`k_n` uses it for p = 3 and p = 4, where the integrand is
    non-oscillatory and decays like exp(-x zeta^p).

    Each u gets its own truncation radius zeta_max: starting from
    (60/x)^(1/p), it doubles until the integrand's modulus there is below
    1e-18 of its larger value at 0.1 and 0.5 of the start.  One fixed rule
    then integrates every u: 48-point Gauss-Legendre on the geometric panels
    zeta_max [0, 2^-12, 2^-11, ..., 1], which resolve the decay scale near
    zero.  So each value depends only on its own u.
    """
    ray = np.exp(1j * np.pi / (2.0 * p))
    u = u_arr[:, None]

    def exponent(zeta):
        """x (u + zeta ray)^p, the integrand being zeta^(n-1) exp(i exponent)."""
        z = u + zeta * ray
        out = z
        for _ in range(p - 1):
            out = out * z
        return x * out

    def modulus(zeta):
        return zeta ** (n - 1) * np.exp(-exponent(zeta).imag)

    start = (60.0 / x) ** (1.0 / p)
    ref = np.maximum(np.maximum(modulus(0.1 * start), modulus(0.5 * start)), 1e-300)
    zmax = np.full(u.shape, start)
    while True:
        grow = (modulus(zmax) > 1e-18 * ref) & (zmax < 1e8)
        if not grow.any():
            break
        zmax = np.where(grow, 2.0 * zmax, zmax)

    nodes, weights = gl_panels_nodes(_RAY_EDGES, 48)
    zeta = zmax * nodes
    vals = zeta ** (n - 1) * np.exp(1j * exponent(zeta))
    integral = np.sum(vals * weights, axis=-1) * zmax[:, 0]
    # (z-u)^(n-1) dz contributes ray^(n-1) * ray on the parameterized ray
    return ((-1.0) ** n / math.factorial(n - 1)) * ray**n * integral


def k_n_zero(n: int, x: float, p: int) -> complex:
    """Closed form k_n(0) = (-1)^n Gamma(n/p) e^{i pi n/(2p)} x^(-n/p) / ((n-1)! p)."""
    _check_contour_args(n, x, p)
    return ((-1.0) ** n / (math.factorial(n - 1) * p)) * real_gamma(n / p) \
        * np.exp(1j * np.pi * n / (2.0 * p)) * x ** (-n / p)


def k_n_bound(n: int, x: float, p: int) -> float:
    """The uniform bound Gamma(n/p) x^(-n/p) / ((n-1)! p)."""
    _check_contour_args(n, x, p)
    return real_gamma(n / p) * x ** (-n / p) / (math.factorial(n - 1) * p)


# ---------------------------------------------------------------------------
# amplitude data: proxies for q and q1 plus the fixed cutoff
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AmplitudeData:
    """The extended amplitudes: q in u = (f - f(a))^(1/p) and q1 in v = u^p.

    Both are Chebyshev proxies times the same fixed cutoff in v, so ``q`` is
    cut off at u^p and ``q1(v) = v^(1/p-1) q(v^(1/p))`` at v.  Instances
    compare and hash by identity.  Each keeps the R2 Filon builds of the
    amplitude sets it leads, one per (other amplitudes, M), in a
    :func:`~sympwave._quad.build_once` cache of its own that goes with it
    (see :func:`remainder_integrals`).
    """

    B: float
    q: CutoffProduct
    q1: CutoffProduct
    p: int

    def __post_init__(self):
        self._r2_panels = build_once(maxsize=None, shared=False)(
            partial(_r2_build, self.q1, self.B**self.p))


def extend_amplitude(q_raw, B: float, p: int, label: str = "") -> AmplitudeData:
    """The fixed extension of an amplitude ``q_raw(u)`` given on u in [0, B].

    ``q_raw`` takes an array of u and must stay analytic up to
    u_hi = 1.02 sqrt(7/4) B.  Its proxy is fitted on [0, u_hi] and the proxy
    of q1(v) = v^(1/p-1) q_raw(v^(1/p)) on [(B/2)^p, u_hi^p], each by
    :func:`~sympwave._quad.cheb_fit`, whose errors name the proxy followed
    by ``label``; both are cut off by the fixed cutoff in v, equal to 1
    below (3/2)^(p/2) B^p and 0 above (7/4)^(p/2) B^p.
    """
    cut_lo = math.sqrt(1.5) * B
    cut_hi = math.sqrt(1.75) * B
    u_hi = cut_hi * 1.02
    proxy_u = cheb_fit(q_raw, (0.0, u_hi), "q proxy" + label)
    v_lo, v_hi = (0.5 * B) ** p, u_hi**p
    proxy_v = cheb_fit(lambda vs: vs ** (1.0 / p - 1.0) * q_raw(vs ** (1.0 / p)),
                       (v_lo, v_hi), "q1 proxy" + label)

    cutoff_v = SmoothCutoff(cut_lo**p, cut_hi**p)
    return AmplitudeData(B=B, q=CutoffProduct(proxy_u, cutoff_v, p, 0.0, u_hi),
                         q1=CutoffProduct(proxy_v, cutoff_v, 1, v_lo, v_hi), p=p)


def amplitude_data(problem: PhaseProblem) -> AmplitudeData:
    """The extended amplitude of ``problem``: :func:`extend_amplitude` of
    q(u) = g(t) p u^(p-1) / f'(t), t inverting the phase by bisection."""
    p = problem.p

    def q_raw(u):
        # Chebyshev points are interior, so u > 0 and f'(t) > 0 at every sample
        t = _invert_extended(problem, u)
        return problem.g(t) * p * u ** (p - 1) / problem.fprime(t)

    return extend_amplitude(q_raw, problem.B, p)


# ---------------------------------------------------------------------------
# the expansion
# ---------------------------------------------------------------------------

@dataclass
class ExpansionResult:
    main_terms: list
    i2_terms: list
    R1: complex
    R2: complex
    x: float
    phase_prefactor: complex
    total: complex = field(init=False)

    def __post_init__(self):
        i1 = sum(self.main_terms) + self.R1
        i2 = sum(self.i2_terms) + self.R2
        self.total = self.phase_prefactor * (i1 - i2)


def remainder_integrals(amps: tuple[AmplitudeData, ...], n: int, m: int, x: float):
    """The R1 and R2 integrals of each amplitude in ``amps``, one value per amplitude.

    ``amps`` is a tuple of :class:`AmplitudeData` sharing B, p, the cutoff,
    and the live intervals and proxy domains of q and of q1.
    Returns ``(r1, r2)`` with r1[i] = int_0^inf q_i^(n)(u) k_n(u) du and
    r2[i] = int_{B^p}^inf q1_i^(m)(v) exp(i x v) dv.  R1's breaks are ten
    panels across the cutoff's flat part and eight across its transition,
    merged with breaks at every 8 pi of the phase x u^p, so that no panel
    holds more than four periods of k_n; k_n runs once per node set for
    every amplitude.  R2 is one Filon build.

    R1 starts at order 16, the first order that can stop it, and takes
    orders 16, 32 and 64 in its first pass (``first_orders=3`` of
    :func:`~sympwave._quad.integrate_panels`, whose slice rule packs them
    into one call up to 146 panels): most R1 integrals stop at order 64, so
    that is one k_n call each, with the stopping decisions of one call per
    order.
    R1 refines to 1e-12 relative, with an absolute floor of
    max(1e-14, eps p x u_hi^p) of the integrand's mass, u_hi^p being the
    end of the live interval in v = u^p.  That floor is the integrand's own
    conditioning, not a looser target: a rounded node u moves the phase of
    k_n by about eps p x u^p, so two levels cannot agree more closely than
    that.  Raises :class:`~sympwave.errors.ResolutionError`, naming the
    largest x that fits, when the phase x u_hi^p needs more than the
    200,000 panels of :func:`~sympwave._quad.halfperiod_breaks`.

    R2's Filon build does not depend on x: it is made once per amplitude set
    and m, kept by ``amps[0]``, and reused at every x.
    """
    first = amps[0]
    p, cutoff = first.p, first.q.cutoff
    lo, hi = cutoff.lo ** (1.0 / p), cutoff.hi ** (1.0 / p)
    phase = x * hi**p
    if phase > 8.0 * np.pi * MAX_PANELS:
        raise ResolutionError(
            f"R1 integral: the phase x u_hi^p = {phase:.3e} needs more than "
            f"{MAX_PANELS} panels of 8 pi; the largest x here is "
            f"{8.0 * np.pi * MAX_PANELS / hi**p:.6g}")
    breaks = np.union1d(
        np.concatenate([np.linspace(0.0, lo, 11), np.linspace(lo, hi, 9)[1:]]),
        hi * halfperiod_breaks(phase / 8.0, 0.0, 1.0) ** (1.0 / p))
    qs = [a.q for a in amps]
    floor = max(1e-14, np.finfo(float).eps * p * phase)
    r1 = integrate_panels(lambda us: cutoff_product_derivs(qs, n, us) * k_n(n, us, x, p),
                          breaks, order0=16, tol=1e-12, warn_label="R1 integral",
                          floor_rel=floor, first_orders=_R1_FIRST_ORDERS)
    return r1, first._r2_panels(amps[1:], m).integrate(np.full(len(amps), x))


def _r2_build(q1, start: float, rest: tuple[AmplitudeData, ...], m: int) -> FilonPanels:
    """The Filon build of q1^(m) on [start, q1.hi] for ``q1`` and each amplitude of ``rest``."""
    q1s = [q1] + [a.q1 for a in rest]
    return FilonPanels(lambda vs: cutoff_product_derivs(q1s, m, vs),
                       start, q1.hi, n_panels=12, warn_label="R2 integral")


# the most boundary terms N and M: the N-th term and the remainders take up to
# N + 1 (or M) derivatives of the proxies, and beyond 9 the derivatives' noise
# puts the criterion-3 amplitudes at x = 20 past 1e-6 of the integral
_MAX_TERMS = 9


def check_terms(N: int, M: int):
    """Raise UsageError unless 1 <= N, M <= 9, the term counts :func:`expand` takes."""
    if not (1 <= N <= _MAX_TERMS and 1 <= M <= _MAX_TERMS):
        raise UsageError(f"need 1 <= N, M <= {_MAX_TERMS}, got N = {N} and M = {M}")


def _check_x_fits(x: float, N: int, M: int, p: int):
    """Raise OutOfRangeError, naming the smallest x that fits, unless every
    power of 1/x that :func:`expand` forms is a finite double: the largest
    are x^-((N+1)/p), in k_{N+1}(0), and x^-M, in R2."""
    power = max((N + 1) / p, M)
    # x^-power < 2^1024 above 2^(-1024/power); the margin covers the rounding
    # of (i/x)^M, which overflows up to about 1e-14 past that
    smallest = 2.0 ** (-1024.0 / power) * (1.0 + 1e-12)
    if x < smallest:
        raise OutOfRangeError(
            f"x = {x:g} is too small for N = {N}, M = {M} and p = {p}: x^-{power:g} "
            f"overflows; the smallest x that fits is {smallest * (1.0 + 1e-5):.6g}")


def expand(problem: PhaseProblem, x: float, N: int, M: int,
           amplitude: AmplitudeData | None = None) -> ExpansionResult:
    """Boundary expansion of the oscillatory integral at frequency x > 0.

    N and M are the number of boundary terms kept at u = 0 and u = B, each
    from 1 to 9; the remainders are evaluated from their integral formulas,
    so ``result.total`` reproduces the integral itself up to quadrature error.
    Raises :class:`~sympwave.errors.OutOfRangeError` for an x so small that
    x^-((N+1)/p) or x^-M overflows, naming the smallest x that fits, and for
    one whose terms overflow to a total that is not finite.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise UsageError(f"x must be finite and positive, got {x!r}")
    check_terms(N, M)
    p = problem.p
    _check_x_fits(x, N, M, p)
    amp = amplitude if amplitude is not None else amplitude_data(problem)

    main_terms = []
    for n in range(N):
        qn = amp.q.proxy_deriv(n)(0.0)
        term = (1.0 / (math.factorial(n) * p)) * real_gamma((n + 1) / p) * qn \
            * np.exp(1j * np.pi * (n + 1) / (2.0 * p)) * x ** (-(n + 1) / p)
        main_terms.append(complex(term))

    bp = amp.B**p
    osc_b = np.exp(1j * x * bp)
    i2_terms = []
    for n in range(M):
        q1n = amp.q1.proxy_deriv(n)(bp)
        i2_terms.append(complex(osc_b * (1.0 / p) * q1n * (1j / x) ** (n + 1)))

    # R1 = (-1)^(N+1) [ q^(N)(0) k_{N+1}(0) + int q^(N+1)(u) k_{N+1}(u) du ]
    # R2 = (1/p) (i/x)^M int_{B^p}^inf q1^(M)(v) exp(i x v) dv; they may overflow
    # at tiny x, which the check of the total below reports
    with np.errstate(over="ignore", invalid="ignore"):
        (r1_int,), (r2_int,) = remainder_integrals((amp,), N + 1, M, x)
        R1 = (-1.0) ** (N + 1) * (amp.q.proxy_deriv(N)(0.0) * k_n_zero(N + 1, x, p) + r1_int)
        R2 = (1.0 / p) * (1j / x) ** M * r2_int

    res = ExpansionResult(main_terms=main_terms, i2_terms=i2_terms,
                          R1=complex(R1), R2=complex(R2), x=x,
                          phase_prefactor=complex(np.exp(1j * x * problem.fa)))
    if not np.isfinite(res.total):
        raise OutOfRangeError(f"the expansion at x = {x:g} with N = {N} and M = {M} "
                              f"overflows: its total is {res.total}")
    return res


def oracle(problem: PhaseProblem, x: float) -> complex:
    """Ground-truth quadrature of int_a^b g exp(i x f) dt.

    Panels split at half-periods of the phase x f(t), at breakpoints from
    one array phase inversion; fixed-order Gauss-Legendre inside, order
    doubled until two levels agree to 1e-10 relative (see
    :func:`~sympwave._quad.integrate_panels`); a warning is attached when the
    order cap of 128 is reached first.  ``g`` and ``f`` are called on the
    node arrays of that function's integrand calls, so each node is
    evaluated once per order.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise UsageError(f"x must be finite and positive, got {x!r}")
    span = problem.fb - problem.fa
    fracs = halfperiod_breaks(x * span, 0.0, 1.0)
    breaks = _invert_extended(problem, (fracs * span) ** (1.0 / problem.p))
    breaks[0], breaks[-1] = problem.a, problem.b

    def integrand(ts):
        return problem.g(ts) * np.exp(1j * x * problem.f(ts))

    return complex(integrate_panels(integrand, breaks, order0=16, tol=1e-10,
                                    max_order=128, warn_label="oracle"))
