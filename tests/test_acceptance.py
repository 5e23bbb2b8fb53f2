"""End-to-end acceptance checks.

Each test pins one verification target at its stated tolerance and runtime
budget and prints a one-line summary (run pytest with -s to see them).
Closed-form oracles are used wherever they exist at desk scale; everything
else is property-based (slopes, ratios, identities).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

import sympwave as sw


E2 = np.array([1.0, 0.0])
E3 = np.array([1.0, 0.0, 0.0])


def report(k, elapsed, limit, detail):
    print(f"[acceptance] criterion {k:2d}: PASS in {elapsed:.2f}s (limit {limit}s) - {detail}")


def test_criterion_01_c_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("h2", "h3", "h4", "ch2", "a2"):
        cf = sw.CFunction(sw.preset(name))
        worst = max(worst, abs(cf.c_function(-1j * cf.datum.rho) - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, elapsed, 1, f"worst |c(-i rho) - 1| = {worst:.2e}")


def test_criterion_02_small_lambda_slope():
    t0 = time.perf_counter()
    targets = {"h3": 2, "a2": 6, "ch2": 2}
    fits = {}
    for name, want in targets.items():
        cf = sw.CFunction(sw.preset(name))
        e = np.ones(cf.datum.rank)
        e /= np.linalg.norm(e)
        s = np.geomspace(1e-3, 1e-2, 20)
        dens = cf.density(s[:, None] * e[None, :])
        slope = np.polyfit(np.log(s), np.log(dens), 1)[0]
        fits[name] = slope
        assert slope == pytest.approx(want, abs=0.05), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, elapsed, 5, ", ".join(f"{k}: {v:.4f}" for k, v in fits.items()))


def test_criterion_03_stationary_phase_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for g in (lambda t: 1.0, np.sin, lambda t: 1.0 + t * t):
        prob = sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2, f=lambda t: -np.cos(t),
                               fprime=np.sin, fsecond=np.cos, g=g)
        amp = sw.amplitude_data(prob)
        for x in (20.0, 50.0, 100.0):
            res = sw.expand(prob, x, 2, 1, amplitude=amp)
            ref = sw.oracle(prob, x)
            err = abs(res.total - ref)
            assert err <= 1e-6 * abs(ref) + 1e-9
            worst = max(worst, err / (1e-6 * abs(ref) + 1e-9))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, elapsed, 10, f"worst error at {worst:.1e} of tolerance")


def test_criterion_04_contour_function_contract():
    t0 = time.perf_counter()
    val = sw.k_n(1, 0.0, 4.0, 2)
    ref = -(math.sqrt(math.pi) / 4.0) * np.exp(1j * np.pi / 4.0)
    assert abs(val - ref) <= 1e-10
    violations = 0
    npts = 0
    for n in (1, 2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            us = np.linspace(0.0, 2.0, 5)
            for x in np.geomspace(0.5, 200.0, 10):
                vals = sw.k_n(n, us, x, p)
                bound = sw.k_n_bound(n, x, p)
                npts += len(us)
                violations += int(np.sum(np.abs(vals) > bound * (1 + 1e-10)))
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, elapsed, 10, f"closed form to 1e-10; 0 bound violations on {npts} points")


def test_criterion_05_decomposition_identity_l3():
    t0 = time.perf_counter()
    sym = sw.gaussian_symbol(3)
    worst_gap, worst_closed = 0.0, 0.0
    for r in (0.5, 1.0, 2.0):
        for h in (10.0, 25.0, 50.0):
            dec = sw.xi_decompose(sym, E3, r, h)
            gap = abs(dec.direct - (dec.main + dec.R0 + dec.R1 + dec.R2))
            assert gap <= 1e-6 * abs(dec.direct) + 1e-9
            closed = 4.0 * np.pi * r * math.exp(-r * r) * math.sin(h * r) / h
            diff = abs(dec.direct - closed)
            assert diff <= 1e-8
            worst_gap = max(worst_gap, gap)
            worst_closed = max(worst_closed, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, elapsed, 30, f"identity gap {worst_gap:.1e}, closed-form gap {worst_closed:.1e}")


def test_criterion_06_main_term_constant():
    t0 = time.perf_counter()

    def fit_constant(l, r, hs, xi_vals, sig):
        phase = hs * r + np.pi * (1.0 - l) / 4.0
        base = 2.0 * sig * np.cos(phase) * (r * hs) ** ((1 - l) / 2.0) * r ** (l - 1)
        corr = base * np.tan(phase) / (hs * r)
        A = np.stack([base, corr], axis=1)
        return np.linalg.lstsq(A, np.real(xi_vals), rcond=None)[0][0]

    r, sig = 1.0, math.exp(-1.0)
    hs3 = np.linspace(20.0, 40.0, 60)
    xi3 = np.array([sw.xi_direct(sw.gaussian_symbol(3), E3, r, h) for h in hs3])
    spot = 4.0 * np.pi * r * sig * np.sin(hs3[0] * r) / hs3[0]
    assert abs(xi3[0] - spot) <= 1e-8
    C3 = fit_constant(3, r, hs3, xi3, sig)
    assert C3 == pytest.approx(2.0 * np.pi, rel=1e-3)

    hs2 = np.linspace(25.0, 60.0, 90)
    xi2 = np.array([sw.xi_direct(sw.gaussian_symbol(2), E2, r, h) for h in hs2])
    assert abs(xi2[0] - 2.0 * np.pi * r * sig * scipy_j0(hs2[0] * r)) <= 1e-8
    C2 = fit_constant(2, r, hs2, xi2, sig)
    assert C2 == pytest.approx(math.sqrt(2.0 * np.pi), rel=1e-3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, elapsed, 10, f"C_2 = {C2:.6f}, C_3 = {C3:.6f}")


def test_criterion_07_remainder_bound_law():
    t0 = time.perf_counter()
    cases = [
        (sw.gaussian_symbol(2), E2, "l=2 gauss"),
        (sw.plancherel_symbol(sw.CFunction(sw.preset("a2"))), E2, "l=2 a2 plancherel"),
        (sw.gaussian_symbol(3), E3, "l=3 gauss"),
    ]
    summary = []
    for sym, E, label in cases:
        n_eff = sym.growth_exponent + sym.dimension
        envelope = {}
        for r in (0.5, 1.0, 2.0, 4.0):
            for h in (5.0, 10.0, 20.0, 40.0, 80.0):
                if h * r < 5.0:
                    continue
                dec = sw.xi_decompose(sym, E, r, h)
                v = (abs(dec.R0 + dec.R1 + dec.R2) * (h * r) ** (sym.dimension / 2.0)
                     * (1.0 + r) ** (-n_eff))
                assert np.isfinite(v)
                envelope[h] = max(envelope.get(h, 0.0), v)
        # sup over the r-section at each h: its h-variation tests the decay
        # law itself and is robust to pointwise phase-interference dips
        sups = list(envelope.values())
        spread = max(sups) / min(sups)
        assert spread < 10.0, label
        summary.append(f"{label}: envelope spread {spread:.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, elapsed, 120, "; ".join(summary))


def test_criterion_08_long_time_decay_and_closed_form():
    t0 = time.perf_counter()
    geom = sw.rank_one_geometry("h3")
    prof = sw.Profile("exponential", 1.0)
    ev = sw.KernelEvaluator(geom, prof)
    R = 0.5
    records = []
    for t in (50.0, 100.0, 200.0, 400.0):
        val = ev.value(t, R)
        closed = (1.0 / (1j * np.sinh(R))) * ((1 - 1j * (t + R)) ** -2
                                              - (1 - 1j * (t - R)) ** -2)
        assert abs(val - closed) <= 1e-8 * abs(closed)
        records.append(sw.SweepRecord(inputs=(("t", t),), outputs=(("absk", abs(val)),)))
    fit = sw.fit_slope(records, "t", "absk")
    assert -3.1 <= fit.slope <= -2.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, elapsed, 30, f"slope {fit.slope:.4f}, pointwise match <= 1e-8")


def test_criterion_09_large_radius_regime():
    t0 = time.perf_counter()
    geom = sw.rank_one_geometry("h3")
    prof = sw.Profile("exponential", 1.0)
    ev = sw.KernelEvaluator(geom, prof)
    t = 20.0
    vals = []
    for R in np.linspace(60.0, 200.0, 12):
        v = abs(ev.value(t, R)) * math.exp(R) * R**2
        vals.append(v)
    med = float(np.median(vals))
    assert max(vals) <= 3.0 * med
    assert min(vals) >= med / 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, elapsed, 30, f"spread around median: [{min(vals)/med:.2f}, {max(vals)/med:.2f}]")


def test_criterion_10_dispersive_decay():
    t0 = time.perf_counter()
    geom = sw.rank_one_geometry("h3")
    prof = sw.Profile("exponential", 1.0)
    records = []
    for t in (10.0, 20.0, 40.0, 80.0):
        b = sw.dispersive_bound(geom, prof, t, 4.0)
        records.append(sw.SweepRecord(inputs=(("t", t),), outputs=(("bound", b),)))
    fit = sw.fit_slope(records, "t", "bound")
    assert fit.slope <= -2.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, elapsed, 120, f"slope {fit.slope:.3f}")


def test_criterion_11_determinism():
    import hashlib

    from sympwave.harness import _flatten

    t0 = time.perf_counter()

    def digest(spec):
        rows = sw.run_sweep(spec)
        text = "\n".join(",".join("%.17g" % v for v in _flatten(r)[1])
                         for r in rows)
        return hashlib.sha256(text.encode()).hexdigest()

    specs = [
        {"experiment": "kernel", "preset": "h3", "psi": "exp:1.0",
         "t-list": "5,10,20,40", "R": "0.5"},
        {"experiment": "cfun", "preset": "a2", "lambda-max": "3.0", "steps": "25"},
        {"experiment": "stphase", "x-list": "20,50", "N": "2", "M": "1"},
    ]
    import os
    old = os.environ.get("SYMPWAVE_THREADS")
    try:
        for spec in specs:
            os.environ["SYMPWAVE_THREADS"] = "1"
            one_a, one_b = digest(spec), digest(spec)
            assert one_a == one_b  # re-run identical
            os.environ["SYMPWAVE_THREADS"] = "4"
            four = digest(spec)
            assert four == one_a  # worker count invariant
    finally:
        if old is None:
            os.environ.pop("SYMPWAVE_THREADS", None)
        else:
            os.environ["SYMPWAVE_THREADS"] = old
    elapsed = time.perf_counter() - t0
    report(11, elapsed, 60, "byte-identical re-runs, 1 vs 4 workers")
