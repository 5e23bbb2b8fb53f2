import math
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest

import sympwave as sw
from sympwave._quad import AccuracyWarning
from sympwave.errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError

mp.mp.dps = 25


def h3_closed_kernel(t, R):
    return (1.0 / (1j * np.sinh(R))) * ((1 - 1j * (t + R)) ** -2 - (1 - 1j * (t - R)) ** -2)


def phi_jacobi_oracle(geom, lam, R):
    a = (geom.m_alpha + geom.m_2alpha - 1) / 2.0
    v = mp.hyp2f1(0.5 * (geom.rho + 1j * lam), 0.5 * (geom.rho - 1j * lam),
                  a + 1.0, -mp.sinh(R) ** 2)
    return float(mp.re(v))


# -- geometry -----------------------------------------------------------------

def test_geometry_fields(h3_geometry):
    g = h3_geometry
    assert g.n == 3 and g.rho == 1.0 and g.d == 1 and g.nu == 3


def test_geometry_rejects_higher_rank():
    with pytest.raises(UsageError):
        sw.rank_one_geometry("a2")


# -- spherical functions --------------------------------------------------------

def test_phi_normalized_at_origin(h3_geometry):
    assert sw.phi_rank1(h3_geometry, 1.7, 0.0) == 1.0


def test_phi_h3_closed_form(h3_geometry):
    for (lam, R) in [(2.0, 1.3), (0.5, 0.2), (7.0, 4.0), (3.0, 30.0)]:
        ref = np.sin(lam * R) / (lam * np.sinh(R))
        assert sw.phi_rank1(h3_geometry, lam, R) == pytest.approx(ref, abs=1e-8 * max(1, abs(ref)))


@pytest.mark.parametrize("name", ["h2", "h4", "ch2"])
def test_phi_against_hypergeometric_oracle(name):
    geom = sw.rank_one_geometry(name)
    for (lam, R) in [(1.5, 0.8), (4.0, 2.0), (0.7, 3.5), (6.0, 5.0)]:
        mine = sw.phi_rank1(geom, lam, R)
        ref = phi_jacobi_oracle(geom, lam, R)
        assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12), (name, lam, R)


@pytest.mark.parametrize("name", ["h2", "h3", "h4", "ch2"])
def test_phi_symmetry_and_phi0_domination(name):
    geom = sw.rank_one_geometry(name)
    for R in (0.4, 1.5, 4.0):
        p0 = sw.phi_zero(geom, R)
        for lam in (0.3, 1.1, 4.0):
            plus = sw.phi_rank1(geom, lam, R)
            minus = sw.phi_rank1(geom, -lam, R)
            assert abs(plus - minus) <= 1e-10 * max(1.0, abs(plus))
            assert abs(plus) <= p0 * (1 + 1e-9)


@pytest.mark.parametrize("name", ["h2", "h3", "h4", "ch2"])
def test_phi0_decay_envelope(name):
    # phi_0 <= C e^{-rho R}(1+R)^d with a modest constant; the constant-free
    # form fails already for the H^3 closed form R/sinh R
    geom = sw.rank_one_geometry(name)
    ratios = [sw.phi_zero(geom, R) * math.exp(geom.rho * R) / (1 + R) ** geom.d
              for R in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert max(ratios) <= 10.0
    assert ratios[-1] <= 1.25 * ratios[-2]  # settled, not growing


def test_phi_rejects_negative_radius(h3_geometry):
    with pytest.raises(UsageError):
        sw.phi_rank1(h3_geometry, 1.0, -0.5)


def test_phi_non_real_quadrature_raises(h3_geometry, monkeypatch):
    # a real exception, not an assert, so python -O keeps the check
    import sympwave.wave_kernel as wk
    monkeypatch.setattr(wk, "_phi_single_angle",
                        lambda geom, lam, R: np.ones(lam.shape) + 1e-3j)
    with pytest.raises(ResolutionError):
        sw.phi_rank1(h3_geometry, 1.0, 0.5)


# -- spectral density ------------------------------------------------------------

def test_xi_density_at_origin_radius(h3_geometry):
    r = np.array([0.7, 1.9])
    vals = sw.xi_density(h3_geometry, 0.0, r)
    dens = h3_geometry.cfun.density(r[:, None])
    assert np.allclose(vals, 2.0 * dens, rtol=1e-12)


def test_xi_density_h3_closed_form(h3_geometry):
    R = 1.1
    r = np.array([0.5, 2.0, 7.0])
    ref = 2.0 * np.sin(r * R) / (r * np.sinh(R)) * r**2
    assert np.allclose(sw.xi_density(h3_geometry, R, r), ref, rtol=1e-9)


def test_xi_density_small_r_vanishing(h3_geometry):
    rs = np.geomspace(1e-3, 0.5, 8)
    ratio = sw.xi_density(h3_geometry, 0.9, rs) / rs ** (h3_geometry.nu - 1)
    assert np.all(np.isfinite(ratio))
    assert ratio.max() <= 3.0 * ratio.min() + 1e-12


# -- kernels ---------------------------------------------------------------------

def test_kernel_t0_R1_closed_value(h3_geometry, exp_profile):
    # int e^{-r} r sin(r R) dr = 2R/(1+R^2)^2, so k(0, 1) = 1/sinh(1)
    val = sw.kernel(h3_geometry, exp_profile, 0.0, 1.0)
    assert val.real == pytest.approx(1.0 / math.sinh(1.0), rel=1e-10)
    assert abs(val.imag) <= 1e-10 * abs(val)


@pytest.mark.parametrize("t,R", [(0.0, 1.0), (5.0, 0.5), (50.0, 0.5), (500.0, 0.5),
                                 (20.0, 60.0), (20.0, 200.0), (-7.0, 2.0)])
def test_kernel_h3_closed_form(h3_geometry, exp_profile, t, R):
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    ref = h3_closed_kernel(t, R)
    assert abs(ev.value(t, R) - ref) <= 1e-7 * abs(ref)


def test_kernel_conjugation(h3_geometry, exp_profile):
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    a, b = ev.value(13.0, 2.0), ev.value(-13.0, 2.0)
    assert abs(b - np.conj(a)) <= 1e-12 * abs(a)


def test_kernel_t0_real_for_bump(h3_geometry):
    ev = sw.KernelEvaluator(h3_geometry, sw.Profile("bump", 2.0))
    val = ev.value(0.0, 1.3)
    assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)


def test_kernel_even_dimension_runs():
    geom = sw.rank_one_geometry("h2")
    ev = sw.KernelEvaluator(geom, sw.Profile("exponential", 1.0))
    val = ev.value(0.0, 1.0)
    assert np.isfinite(val.real) and abs(val.imag) <= 1e-9 * abs(val)


def test_kernel_ch2_runs_and_conjugates():
    geom = sw.rank_one_geometry("ch2")
    ev = sw.KernelEvaluator(geom, sw.Profile("exponential", 1.0))
    a = ev.value(6.0, 1.5)
    b = ev.value(-6.0, 1.5)
    assert abs(b - np.conj(a)) <= 1e-9 * abs(a)


def test_kernel_divergent_profile_rejected(h3_geometry):
    with pytest.raises(DivergenceError):
        sw.KernelEvaluator(h3_geometry, sw.Profile("rational", 2.5))


def test_kernel_rational_profile_finite(h3_geometry):
    ev = sw.KernelEvaluator(h3_geometry, sw.Profile("rational", 8.0))
    assert np.isfinite(ev.value(3.0, 1.0).real)


# -- tabulated profile transform -------------------------------------------------

def _evaluator(name, family, param):
    with warnings.catch_warnings():
        # h4/rational:8 warns that its Filon amplitude is not fully resolved
        warnings.simplefilter("ignore", AccuracyWarning)
        return sw.KernelEvaluator(sw.rank_one_geometry(name), sw.Profile(family, param))


@pytest.mark.parametrize("name,family,param", [("h3", "exponential", 1.0),
                                               ("h4", "rational", 8.0),
                                               ("h2", "bump", 2.0),
                                               ("ch2", "exponential", 1.0)])
def test_transform_table_matches_filon(name, family, param):
    table = _evaluator(name, family, param).transform
    v = np.linspace(-80.0, 600.0, 13601)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        tab = table(v)
    assert np.max(np.abs(tab - table.f(v))) <= 1e-12 * table.scale


def test_transform_table_h3_closed_form(h3_geometry, exp_profile):
    # int_0^inf r^2 e^{-r} e^{i r v} dr = 2 / (1 - i v)^3
    table = sw.KernelEvaluator(h3_geometry, exp_profile).transform
    v = np.linspace(-1.0, 10.0, 1101)
    closed = 2.0 / (1.0 - 1j * v) ** 3
    assert np.max(np.abs(table(v) - closed) / np.abs(closed)) <= 1e-12


def _chunk_bytes(table):
    return {k: tuple(a.tobytes() for a in pieces) for k, pieces in table.chunks.items()}


def test_transform_table_chunks_independent_of_build_order():
    # h4/rational:8 splits the chunks next to v = 0, the rest stay whole
    points = [k + 0.5 for k in range(-4, 6)]
    forward = _evaluator("h4", "rational", 8.0).transform
    for v in points:
        forward(v)
    backward = _evaluator("h4", "rational", 8.0).transform
    for v in reversed(points):
        backward(np.array([v, v - 0.25]))
    threaded = _evaluator("h4", "rational", 8.0).transform
    errors = []

    def worker(offset):
        try:
            for i in range(len(points)):
                threaded(points[(i + offset) % len(points)])
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(3 * i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(forward.chunks) == len(points)
    assert any(len(pieces[0]) > 1 for pieces in forward.chunks.values())
    assert _chunk_bytes(backward) == _chunk_bytes(forward)
    assert _chunk_bytes(threaded) == _chunk_bytes(forward)


def test_transform_table_second_lookup_builds_nothing(h3_geometry, exp_profile):
    table = sw.KernelEvaluator(h3_geometry, exp_profile).transform
    inner, calls = table.f, []
    table.f = lambda v: calls.append(len(v)) or inner(v)
    v = np.linspace(-3.0, 7.0, 500)
    first = table(v)
    assert calls and len(table.chunks) == 11
    calls.clear()
    assert np.array_equal(table(v), first)
    assert calls == [] and len(table.chunks) == 11


# -- distinguished kernel and polar weight ------------------------------------------

def test_distinguished_examples(h3_geometry, exp_profile):
    s = sw.KernelSample(t=2.0, R=0.0, value=0.3 + 0.1j)
    assert sw.distinguished(h3_geometry, s) == pytest.approx(0.3 + 0.1j)
    s2 = sw.KernelSample(t=2.0, R=2.0, value=0.3 + 0.1j)
    assert sw.distinguished(h3_geometry, s2) == pytest.approx(math.e**2 * (0.3 + 0.1j))


def test_distinguished_large_radius_decay(h3_geometry, exp_profile):
    t = 20.0
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    vals = []
    for R in np.linspace(3 * t, 10 * t, 8):
        s = sw.KernelSample(t=t, R=R, value=ev.value(t, R))
        vals.append(abs(sw.distinguished(h3_geometry, s)) * R ** (h3_geometry.d + 1))
    assert max(vals) <= 4.0 * np.median(vals)


def test_cartan_weight_values(h3_geometry):
    assert sw.cartan_weight(h3_geometry, 1.0) == pytest.approx(math.sinh(1.0) ** 2)
    assert sw.cartan_weight(h3_geometry, 0.0) == 0.0
    ch2 = sw.rank_one_geometry("ch2")
    assert sw.cartan_weight(ch2, 1.0) == pytest.approx(math.sinh(1.0) ** 2 * math.sinh(2.0), rel=1e-12)


# -- dispersive bound -----------------------------------------------------------------

def test_dispersive_requires_p_above_two(h3_geometry, exp_profile):
    with pytest.raises(OutOfRangeError):
        sw.dispersive_bound(h3_geometry, exp_profile, 10.0, 2.0)


def test_dispersive_zero_kernel_gives_zero(h3_geometry):
    class ZeroProfile:
        family, param = "exponential", 1.0
        def eval(self, k, r):
            r = np.asarray(r, dtype=float)
            return np.zeros_like(r) if r.ndim else 0.0
        def constant_finite(self, k, s):
            return True
        def truncation_radius(self, eps):
            return 5.0
    assert sw.dispersive_bound(h3_geometry, ZeroProfile(), 10.0, 4.0) == 0.0


def test_dispersive_p6_finite(h3_geometry, exp_profile):
    val = sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 6.0)
    assert np.isfinite(val) and val > 0.0


def test_log_regime_ratio_bounded(h3_geometry, exp_profile):
    t = 50.0
    vals = [sw.log_regime_ratio(h3_geometry, exp_profile, t, R)
            for R in (0.5 * t, 1.0 * t, 2.0 * t, 3.0 * t)]
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) <= 10.0


def test_long_time_ratio_bounded(h3_geometry, exp_profile):
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    R = 0.5
    ratios = []
    for t in (20.0, 60.0, 150.0, 500.0):
        v = abs(ev.value(t, R))
        ratios.append(v * t ** h3_geometry.nu
                      / ((1 + R) ** (h3_geometry.nu + h3_geometry.d)
                         * math.exp(-h3_geometry.rho * R)))
    assert all(np.isfinite(x) for x in ratios)
    assert max(ratios) <= 4.0 * min(ratios)
