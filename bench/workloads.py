"""The benchmark's workloads: seeded op grids, shared set-up and checks.

An op is one timed call into sympwave plus a check of its result against a
closed form, a stored reference (``refs.json``, made by ``make_refs.py``) or
an identity between independently computed pieces.  Nothing here compares a
result with another run of the code under test.

Grid points are drawn from each op family's range by the seed, one per cell
of the range, so that a pass costs about the same on every seed while still
visiting new inputs.  The points that fail at the seed commit
(``known_failures.json``), the xi decomposition grid and the expansion grid
are fixed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("wave", "xi", "stphase")
DIGITS_CAP = 12.0   # accuracy_digits of an exact result


@dataclass
class Check:
    err: float          # distance from the reference
    tol: float          # allowed distance
    ok: bool = True     # extra pass/fail conditions (bounds), beyond err <= tol

    @property
    def passed(self):
        return self.ok and math.isfinite(self.err) and self.err <= self.tol

    @property
    def digits(self):
        if self.err <= 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, math.log10(self.tol / self.err))


@dataclass
class Op:
    name: str
    run: callable                 # () -> result, the timed call
    check: callable               # result -> Check
    values: callable = None       # result -> flat complex array for the output file


def load_json(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def flat(result):
    return np.atleast_1d(np.asarray(result, dtype=complex)).ravel()


def rel_check(value, ref, rtol):
    """Largest deviation against rtol times the largest reference magnitude."""
    value, ref = flat(value), flat(ref)
    return Check(float(np.max(np.abs(value - ref))), rtol * float(np.max(np.abs(ref))))


def cell_points(rng, lo, hi, n, jitter=1.0, log=True):
    """n points, one per equal cell of [lo, hi] (log-spaced cells when ``log``).

    Each point is drawn uniformly from the middle ``jitter`` fraction of its
    cell, so the points differ per seed while the grid keeps its shape.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / n
    centers = a + width * (np.arange(n) + 0.5)
    pts = centers + width * jitter * (rng.random(n) - 0.5)
    return [float(math.exp(p) if log else p) for p in pts]


# ---------------------------------------------------------------------------
# set-up: the objects ops share
# ---------------------------------------------------------------------------

def setup(workload):
    """Build the reusable objects of a workload (timed as setup_s)."""
    import sympwave as sw
    if workload == "wave":
        geoms = {name: sw.rank_one_geometry(name) for name in ("h2", "h3", "h4", "ch2")}
        evals = {
            "h3/exp:1": sw.KernelEvaluator(geoms["h3"], sw.Profile("exponential", 1.0)),
            "h4/rational:8": sw.KernelEvaluator(geoms["h4"], sw.Profile("rational", 8.0)),
            "h2/bump:2": sw.KernelEvaluator(geoms["h2"], sw.Profile("bump", 2.0)),
            "ch2/exp:1": sw.KernelEvaluator(geoms["ch2"], sw.Profile("exponential", 1.0)),
        }
        return {"geoms": geoms, "evals": evals}
    if workload == "xi":
        return {"symbols": {
            "gauss l=2": sw.gaussian_symbol(2),
            "a2 plancherel": sw.plancherel_symbol(sw.CFunction(sw.preset("a2"))),
            "gauss l=3": sw.gaussian_symbol(3),
        }}
    if workload == "stphase":
        problems = {}
        for label, g in (("1", lambda t: 1.0), ("sin", np.sin),
                         ("1+t^2", lambda t: 1.0 + t * t)):
            prob = sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2, f=lambda t: -np.cos(t),
                                   fprime=np.sin, fsecond=np.cos, g=g)
            problems[label] = (prob, sw.amplitude_data(prob))
        return {"problems": problems}
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(workload, seed, objs, size="full"):
    rng = np.random.default_rng(seed)
    return {"wave": wave_ops, "xi": xi_ops, "stphase": stphase_ops}[workload](rng, objs, size)


# ---------------------------------------------------------------------------
# wave: kernels, spherical functions, dispersive bound
# ---------------------------------------------------------------------------

def h3_closed(t, R):
    """Closed-form h3 kernel of exp(-r) (the acceptance suite's criterion 8)."""
    return (1.0 / (1j * math.sinh(R))) * ((1 - 1j * (t + R)) ** -2 - (1 - 1j * (t - R)) ** -2)


def _fmt(x):
    return f"{x:.6g}"


def wave_ops(rng, objs, size):
    import sympwave as sw
    refs = load_json("refs.json")
    ev, geoms = objs["evals"], objs["geoms"]
    smoke = size == "smoke"
    ops = []

    def value_op(key, t, R, check):
        return Op(f"{key} value t={_fmt(t)} R={_fmt(R)}",
                  lambda: ev[key].value(t, R), check)

    # h3/exp:1 on a log t grid against the closed form; t >= 1e3 is fixed
    for R in (0.5, 2.0, 8.0, 60.0):
        for t in cell_points(rng, 5.0, 500.0, 1 if smoke else 32):
            ops.append(value_op("h3/exp:1", t, R,
                                lambda v, t=t, R=R: rel_check(v, h3_closed(t, R), 1e-8)))
    for t in (1e3, 1e4):
        ops.append(value_op("h3/exp:1", t, 0.5,
                            lambda v, t=t: rel_check(v, h3_closed(t, 0.5), 1e-8)))

    # h4, h2 (single-angle path) and ch2 (disc path) against stored references,
    # drawn from the pool points where the code meets 1e-7 relative at the seed
    # commit; h4 t = 100 misses by 1.4e-3 and is a fixed member instead
    for key, radii, draw in (("h4/rational:8", (0.5, 2.0, 8.0), 2),
                             ("h2/bump:2", (0.5, 2.0, 8.0), 10),
                             ("ch2/exp:1", (0.5, 2.0), 12)):
        table = refs["kernel"][key]
        for R in radii[:1] if smoke else radii:
            i = int(rng.integers(draw))
            ref = complex(*table["R"][repr(R)][i])
            ops.append(value_op(key, table["t"][i], R,
                                lambda v, ref=ref: rel_check(v, ref, 1e-7)))
    if not smoke:
        for key, i, R in (("h4/rational:8", 11, 0.5),
                          # the disc path asks for gigabytes: MemoryError under the cap
                          ("ch2/exp:1", 0, 8.0)):
            table = refs["kernel"][key]
            ref = complex(*table["R"][repr(R)][i])
            ops.append(value_op(key, table["t"][i], R,
                                lambda v, ref=ref: rel_check(v, ref, 1e-7)))

    # phi_rank1 batches: closed form for h3, mpmath hyp2f1 pools for h2/h4/ch2
    lam_h3 = np.sort(rng.uniform(0.0, 20.0, 200))
    lam_h3[lam_h3 == 0.0] = 1e-3
    R_h3 = float(rng.choice([0.5, 2.0, 8.0]))
    ops.append(Op(f"h3 phi_rank1 200 R={_fmt(R_h3)}",
                  lambda: sw.phi_rank1(geoms["h3"], lam_h3, R_h3),
                  lambda v: rel_check(v, np.sin(lam_h3 * R_h3)
                                      / (lam_h3 * math.sinh(R_h3)), 1e-8)))
    for name, count in (("h2", 200), ("h4", 200), ("ch2", 20)):
        pool = refs["phi"][name]
        radii = sorted(pool["R"], key=float)
        R = radii[int(rng.integers(len(radii)))]
        idx = np.sort(rng.choice(len(pool["lam"]), count, replace=False))
        lam = np.array(pool["lam"])[idx]
        ref = np.array(pool["R"][R])[idx]
        ops.append(Op(f"{name} phi_rank1 {count} R={R}",
                      lambda g=geoms[name], lam=lam, R=float(R): sw.phi_rank1(g, lam, R),
                      lambda v, ref=ref: rel_check(v, ref, 1e-8)))

    # the dispersive bound at a criterion-10 time, certified to 0.1 percent
    if not smoke:
        table = refs["dispersive"]["h3/exp:1/p=4"]
        t = 40.0
        ref = table["value"][table["t"].index(t)]
        ops.append(Op(f"h3/exp:1 dispersive_bound p=4 t={_fmt(t)}",
                      lambda: sw.dispersive_bound(geoms["h3"], sw.Profile("exponential", 1.0),
                                                  t, 4.0),
                      lambda v: rel_check(v, ref, 1e-3)))
    return ops


# ---------------------------------------------------------------------------
# xi: the decomposition identity and criterion 6's direct sweeps
# ---------------------------------------------------------------------------

E2 = np.array([1.0, 0.0])
E3 = np.array([1.0, 0.0, 0.0])


def _xi_values(dec):
    return np.array([dec.direct, dec.main, dec.R0, dec.R1, dec.R2])


def _xi_check(dec, closed=None):
    gap = abs(dec.direct - (dec.main + dec.R0 + dec.R1 + dec.R2))
    check = Check(gap, 1e-6 * abs(dec.direct) + 1e-9)
    if closed is not None:
        alt = Check(abs(dec.direct - closed), 1e-8)
        if alt.err / alt.tol > check.err / check.tol:
            check = alt
    return check


def xi_ops(rng, objs, size):
    import sympwave as sw
    from scipy.special import j0
    smoke = size == "smoke"
    ops = []
    for label, sym in objs["symbols"].items():
        E = E3 if sym.dimension == 3 else E2
        for r in (1.0,) if smoke else (0.5, 1.0, 2.0, 4.0):
            for h in (40.0,) if smoke else (10.0, 40.0, 80.0):
                closed = (4.0 * math.pi * r * math.exp(-r * r) * math.sin(h * r) / h
                          if label == "gauss l=3" else None)
                ops.append(Op(f"{label} xi_decompose r={_fmt(r)} h={_fmt(h)}",
                              lambda sym=sym, E=E, r=r, h=h: sw.xi_decompose(sym, E, r, h),
                              lambda d, closed=closed: _xi_check(d, closed),
                              values=_xi_values))

    # criterion 6: direct sweeps at r = 1 against sin and J0 closed forms
    sig = math.exp(-1.0)
    g3, g2 = objs["symbols"]["gauss l=3"], objs["symbols"]["gauss l=2"]
    for h in cell_points(rng, 20.0, 40.0, 6 if smoke else 60, log=False):
        ops.append(Op(f"gauss l=3 xi_direct r=1 h={_fmt(h)}",
                      lambda h=h: sw.xi_direct(g3, E3, 1.0, h),
                      lambda v, h=h: Check(abs(v - 4.0 * math.pi * sig * math.sin(h) / h), 1e-8)))
    for h in cell_points(rng, 25.0, 60.0, 9 if smoke else 90, log=False):
        ops.append(Op(f"gauss l=2 xi_direct r=1 h={_fmt(h)}",
                      lambda h=h: sw.xi_direct(g2, E2, 1.0, h),
                      lambda v, h=h: Check(abs(v - 2.0 * math.pi * sig * j0(h)), 1e-8)))
    return ops


# ---------------------------------------------------------------------------
# stphase: expansion against oracle, contour-function bounds, cfun sweeps
# ---------------------------------------------------------------------------

def stphase_closed(label, x):
    """int_0^(pi/2) g(t) exp(-i x cos t) dt where a closed form exists."""
    from scipy.special import j0, struve
    if label == "1":
        return 0.5 * math.pi * (j0(x) - 1j * struve(0, x))
    if label == "sin":
        return (1.0 - np.exp(-1j * x)) / (1j * x)
    return None


def k_n_closed(n, x, p):
    """k_n(0) = (-1)^n Gamma(n/p) exp(i pi n / 2p) x^(-n/p) / ((n-1)! p)."""
    return ((-1.0) ** n * math.gamma(n / p) * np.exp(1j * math.pi * n / (2 * p))
            * x ** (-n / p) / (math.factorial(n - 1) * p))


# rank, reduced roots (vector, m_alpha, m_2alpha): the c-function reference's own copy
ROOTS = {
    "a2": [((1.0, 0.0), 1, 0), ((0.5, math.sqrt(3) / 2), 1, 0),
           ((-0.5, math.sqrt(3) / 2), 1, 0)],
    "h3": [((1.0,), 2, 0)],
    "ch2": [((1.0,), 2, 1)],
}


def density_reference(preset, lam):
    """Plancherel density |c|^-2 per row of ``lam``: the Gindikin-Karpelevich
    product with mpmath.loggamma, normalised by c(-i rho) = 1."""
    import mpmath as mp
    roots = [(np.array(v), m, m2) for v, m, m2 in ROOTS[preset]]
    rho = sum(0.5 * (m + 2 * m2) * v for v, m, m2 in roots)

    def log_abs_c(row, imag):
        acc = mp.mpf(0)
        for v, m, m2 in roots:
            y = float(row @ v / (v @ v))
            iy = mp.mpf(y) if imag else mp.mpc(0, y)
            acc += mp.re(mp.loggamma(iy) - mp.loggamma((mp.mpf(m) / 2 + 1 + iy) / 2)
                         - mp.loggamma((mp.mpf(m) / 2 + m2 + iy) / 2) - iy * mp.log(2))
        return acc

    c0 = -log_abs_c(rho, True)
    return np.array([float(mp.exp(-2 * (c0 + log_abs_c(row, False)))) for row in lam])


def _cfun_check(rows, preset):
    lam = np.array([[v for _, v in rec.inputs] for rec in rows])
    got = np.array([rec.get("density") for rec in rows])
    # row by row: the density spans many decades between lambda -> 0 and lambda-max
    return Check(float(np.max(np.abs(got / density_reference(preset, lam) - 1.0))), 1e-10)


def _cfun_values(rows):
    return np.array([rec.get("density") for rec in rows], dtype=complex)


def stphase_ops(rng, objs, size):
    import sympwave as sw
    smoke = size == "smoke"
    ops = []
    problems = objs["problems"]
    labels = list(problems)
    # centres of twelve log cells over [20, 1e4]; amplitude j takes cells j, j+3,
    # j+6, j+9.  Not drawn: at some x the adaptive remainder integrals hit their
    # order cap and an expansion costs three times as much, so drawn points made
    # the pass time depend on the seed
    xs = cell_points(rng, 20.0, 1e4, 12, jitter=0.0)
    if smoke:
        xs = xs[:3]
    for j, x in enumerate(xs):
        label = labels[j % 3]
        prob, amp = problems[label]

        def run(prob=prob, x=x, amp=amp):
            return sw.expand(prob, x, 2, 1, amplitude=amp).total, sw.oracle(prob, x)

        def check(v, closed=stphase_closed(label, x)):
            # criterion 3's tolerance; each side against the closed form if any
            refs = [closed] * 2 if closed is not None else [v[1], v[0]]
            return max((Check(abs(a - b), 1e-6 * abs(b) + 1e-9) for a, b in zip(v, refs)),
                       key=lambda c: c.err / c.tol)

        ops.append(Op(f"g={label} expand N=2 M=1 and oracle x={_fmt(x)}", run, check))

    # criterion 4: contour functions, closed form at u = 0 and the uniform bound
    us = np.linspace(0.0, 2.0, 5)
    for n in (1, 2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            for x in cell_points(rng, 0.5, 200.0, 2 if smoke else 10):
                def kn_check(v, n=n, x=x, p=p):
                    bound = math.gamma(n / p) * x ** (-n / p) / (math.factorial(n - 1) * p)
                    ref = k_n_closed(n, x, p)
                    return Check(abs(v[0] - ref), 1e-10 * abs(ref),
                                 ok=bool(np.all(np.abs(v) <= bound * (1 + 1e-10))))
                ops.append(Op(f"k_n n={n} p={p} x={_fmt(x)}",
                              lambda n=n, x=x, p=p: sw.k_n(n, us, x, p), kn_check))

    # cfun sweeps through the harness, 2000 rows each, against mpmath log-gamma densities
    steps = 200 if smoke else 2000
    for preset in ("a2", "h3", "ch2"):
        lam_max = float(rng.uniform(5.0, 20.0))
        spec = {"experiment": "cfun", "preset": preset,
                "lambda-max": repr(lam_max), "steps": str(steps)}
        ops.append(Op(f"cfun sweep {preset} lambda-max={_fmt(lam_max)} steps={steps}",
                      lambda spec=spec: sw.run_sweep(spec),
                      lambda rows, preset=preset: _cfun_check(rows, preset),
                      values=_cfun_values))
    return ops
