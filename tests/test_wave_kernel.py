import math
import re
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympwave as sw
from sympwave import wave_kernel as wk
from sympwave._quad import AccuracyWarning, gl_panels
from sympwave.errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError
from sympwave.root_data import ReducedRoot, RootDatum

mp.mp.dps = 25


def h3_closed_kernel(t, R):
    return (1.0 / (1j * np.sinh(R))) * ((1 - 1j * (t + R)) ** -2 - (1 - 1j * (t - R)) ** -2)


def phi_jacobi_oracle(geom, lam, R):
    a = (geom.m_alpha + geom.m_2alpha - 1) / 2.0
    v = mp.hyp2f1(0.5 * (geom.rho + 1j * lam), 0.5 * (geom.rho - 1j * lam),
                  a + 1.0, -mp.sinh(R) ** 2, maxterms=10**6)
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


@pytest.mark.parametrize("name", ["h2", "h4", "ch2", RootDatum(1, (ReducedRoot((1.0,), 4, 1),))],
                         ids=["h2", "h4", "ch2", "ch3"])
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


@pytest.mark.parametrize("name", ["h2", "h4", "ch2"])
def test_even_phi_at_large_radius_against_hypergeometric_oracle(name):
    # cosh R - cosh s cancels near s = +-R; z is formed without it (in the caps
    # from R - s = 2 R sin^2(pi/4 - theta/2)), which keeps every digit out to R = 166
    geom = sw.rank_one_geometry(name)
    lams = np.array([0.0, 0.5, 3.0, 20.0])
    for R in (0.05, 0.5, 2.0, 8.0, 14.0, 19.0, 19.5, 30.0, 60.0, 166.0):
        mine = sw.phi_rank1(geom, lams, R)
        for lam, val in zip(lams, mine):
            ref = phi_jacobi_oracle(geom, lam, R)
            assert abs(val - ref) <= 1e-10 * abs(ref), (lam, R)


@pytest.mark.parametrize("name", ["h2", "h3", "h4", "ch2"])
def test_phi_zero_over_an_array_of_radii(name):
    geom = sw.rank_one_geometry(name)
    R = np.array([0.0, 0.05, 0.5, 3.0, 9.0, 17.0, 40.0, 120.0])
    arr = sw.phi_zero(geom, R)
    assert arr.shape == R.shape
    for r, val in zip(R, arr):
        own = sw.phi_rank1(geom, 0.0, float(r))
        assert abs(val - own) <= 1e-15 * own, r
        assert sw.phi_zero(geom, float(r)) == val
    assert sw.phi_zero(geom, R.reshape(-1, 1)).shape == (len(R), 1)
    if name == "h3":
        closed = np.ones_like(R)
        closed[1:] = R[1:] / np.sinh(R[1:])
        assert np.max(np.abs(arr - closed) / closed) <= 1e-14


@pytest.mark.parametrize("m_alpha", [4, 6])
def test_phi_zero_odd_dimension_with_a_nonconstant_density(m_alpha):
    # n = 5, 7: the boundary density (cosh R - cosh s)^m is not constant, and
    # radii that share a starting panel count refine together
    geom = sw.rank_one_geometry(RootDatum(1, (ReducedRoot((1.0,), m_alpha, 0),)))
    R = np.array([0.05, 0.5, 3.0, 7.9, 9.0, 17.0, 40.0, 95.0])
    arr = sw.phi_zero(geom, R)
    for r, val in zip(R, arr):
        own = sw.phi_rank1(geom, 0.0, float(r))
        assert abs(val - own) <= 1e-12 * own, r
        assert abs(val - phi_jacobi_oracle(geom, 0.0, r)) <= 1e-10 * val, r


@pytest.mark.parametrize("m_alpha, m_2alpha", [(4, 1), (5, 0), (7, 0)])
def test_phi_zero_batch_equals_alone_for_other_even_dimensions(m_alpha, m_2alpha):
    # CH^3, H^6 and H^8: the densities are not entire, and no starting panel of
    # these radii is halved, so a batch gives every radius its own value
    geom = sw.rank_one_geometry(RootDatum(1, (ReducedRoot((1.0,), m_alpha, m_2alpha),)))
    R = np.geomspace(1e-3, 100.0, 60)
    arr = sw.phi_zero(geom, R)
    assert all(sw.phi_zero(geom, float(r)) == val for r, val in zip(R, arr))


def test_h2_phi_at_the_ends_of_its_radius_range():
    # both ends of the range that _check_radii accepts for h2, where a colatitude
    # rule's z = tanh(R) ds sin(t) / 4 underflows
    geom = sw.rank_one_geometry("h2")
    for R in (1e-20, 1e-16, 400.0, 700.0):
        p0 = phi_jacobi_oracle(geom, 0.0, R)
        assert abs(sw.phi_zero(geom, R) - p0) <= 1e-12 * p0, R
        vals = sw.phi_rank1(geom, [0.0, 2.0], R)
        for lam, val in zip((0.0, 2.0), vals):
            assert abs(val - phi_jacobi_oracle(geom, lam, R)) <= 1e-12 * p0, (lam, R)


@pytest.mark.parametrize("name", ["h2", "h4", "ch2"])
def test_phi_at_large_lam_R(name):
    # lam R = 1e5 and 1.2e5, where colatitude panels would need more than 60000
    # panels, and lam gap = 2e4 and 1.5e4 at lam R = 8e4 and 3e4; the Filon
    # interior does not resolve lam, and the caps take one panel per pi of lam gap
    geom = sw.rank_one_geometry(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        for lam, R in ((1000.0, 100.0), (3000.0, 40.0), (4e4, 2.0), (3e4, 1.0)):
            val = sw.phi_rank1(geom, lam, R)
            err = abs(val - phi_jacobi_oracle(geom, lam, R))
            assert err <= 1e-12 * phi_jacobi_oracle(geom, 0.0, R), (lam, R)


def test_phi_caps_refuse_past_their_panel_budget(h3_geometry, monkeypatch):
    # one cap panel per pi of lam gap: without a budget, lam = 1e12 asked numpy
    # for 1.16 TiB of breaks and lam = 1e300 raised numpy's ValueError
    geom = sw.rank_one_geometry("h2")
    for lam in (1e12, 1e300):
        t0 = time.perf_counter()
        with pytest.raises(ResolutionError, match=r"largest \|lam\| at these radii is 3\.294"):
            sw.phi_rank1(geom, lam, 2.0)
        assert time.perf_counter() - t0 < 1.0
    # a lam inside the budget keeps its value, and h3's entire density has no caps
    val = sw.phi_rank1(geom, 1e5, 2.0)
    assert abs(val - phi_jacobi_oracle(geom, 1e5, 2.0)) <= 1e-12 * phi_jacobi_oracle(geom, 0.0, 2.0)
    monkeypatch.setattr(wk, "_CAP_PANELS", 1 << 40)
    assert sw.phi_rank1(geom, 1e5, 2.0) == val
    ref = math.sin(2e12) / (1e12 * math.sinh(2.0))
    assert sw.phi_rank1(h3_geometry, 1e12, 2.0) == pytest.approx(ref, rel=1e-9)


def test_phi_rejects_non_finite_lambda(h3_geometry):
    for lam in (np.nan, np.inf, np.array([1.0, -np.inf])):
        with pytest.raises(UsageError):
            sw.phi_rank1(h3_geometry, lam, 0.5)


def test_phi_rejects_negative_radius(h3_geometry):
    with pytest.raises(UsageError):
        sw.phi_rank1(h3_geometry, 1.0, -0.5)


def test_phi_non_real_quadrature_raises(h3_geometry, monkeypatch):
    # a real exception, not an assert, so python -O keeps the check
    import sympwave.wave_kernel as wk
    monkeypatch.setattr(wk, "_phi_quadrature",
                        lambda geom, lam, R: np.ones(lam.shape) + 1e-3j)
    with pytest.raises(ResolutionError):
        sw.phi_rank1(h3_geometry, 1.0, 0.5)


@pytest.mark.parametrize("name", ["h2", "h3", "h4", "ch2"])
@pytest.mark.parametrize("R", [0.5, 2.0, 8.0])
def test_poisson_rule_unit_mass(name, R):
    # phi_{-i rho}(R) = 1: the Poisson measure has unit mass against e^{rho s}.
    # A transform F(v) = e^{-rho v} makes the kernel at t = 0 exactly twice
    # that mass, through the same panels and endpoint caps.
    geom = sw.rank_one_geometry(name)
    ev = sw.KernelEvaluator(geom, sw.Profile("exponential", 1.0))
    ev.transform = lambda v: np.exp(-geom.rho * np.asarray(v)) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        mass = 0.5 * ev.value(0.0, R)
    assert abs(mass - 1.0) <= 1e-9


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
                                 (20.0, 60.0), (20.0, 200.0), (-7.0, 2.0), (0.0, 100.0),
                                 (0.5, 300.0)])
def test_kernel_h3_closed_form(h3_geometry, exp_profile, t, R):
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    ref = h3_closed_kernel(t, R)
    assert abs(ev.value(t, R) - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("name,family,param", [("h3", "exponential", 1.0),
                                               ("h2", "bump", 2.0),
                                               ("h4", "rational", 8.0),
                                               ("ch2", "exponential", 1.0)])
def test_kernel_conjugation(name, family, param):
    # F(-v) is the conjugate of F(v) and the boundary measure is even in s
    ev = _evaluator(name, family, param)
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


def test_oversized_transform_grid_refused(h3_geometry, monkeypatch):
    # exp:1e-6 reaches 1e-14 only at r = 6.9e7: 23M panels, 553M nodes
    from sympwave import _quad
    builds = []
    monkeypatch.setattr(_quad.FilonPanels, "_fit", lambda self, lo, hi: builds.append(len(lo)))
    with pytest.raises(ResolutionError, match=r"rmax = 6\.91e\+07.* 23033713 Filon panels"):
        sw.KernelEvaluator(h3_geometry, sw.Profile("exponential", 1e-6))
    assert builds == []          # refused before anything is sampled


def test_kernel_rational_profile_finite(h3_geometry):
    ev = sw.KernelEvaluator(h3_geometry, sw.Profile("rational", 8.0))
    assert np.isfinite(ev.value(3.0, 1.0).real)


@pytest.mark.parametrize("name,family,param", [("h2", "bump", 2.0),
                                               ("h3", "exponential", 1.0),
                                               ("h4", "rational", 8.0),
                                               ("ch2", "exponential", 1.0)])
def test_values_equal_value_bit_for_bit(name, family, param):
    # R = 0 reads F alone, and small R has endpoint caps wider than its interior
    ev = _evaluator(name, family, param)
    radii = np.array([0.0, 0.05, 0.3, 1.0, 2.0, 7.5, 30.0])
    ts = np.array([-3.0, 0.0, 7.5, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        grid = ev.values(ts[:, None], radii[None, :])
        assert grid.shape == (len(ts), len(radii))
        for i, t in enumerate(ts):
            for j, R in enumerate(radii):
                alone = ev.value(float(t), float(R))
                assert grid[i, j].tobytes() == np.complex128(alone).tobytes(), (t, R)
    assert ev.values(1.0, np.array([], dtype=float)).shape == (0,)


def test_values_go_through_in_blocks_of_pairs(h3_geometry, exp_profile, monkeypatch):
    # blocks bound the nodes held at once and leave every value as it was
    import sympwave.wave_kernel as wk
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    ts = np.linspace(-5.0, 45.0, 7)[:, None]
    radii = np.array([0.0, 0.05, 1.0, 7.5, 30.0])[None, :]
    whole = ev.values(ts, radii)
    rows, integrate = [], wk.integrate_panels
    monkeypatch.setattr(wk, "_PAIR_BLOCK", 4)
    monkeypatch.setattr(wk, "integrate_panels",
                        lambda f, breaks, **kw: rows.append(len(breaks)) or integrate(f, breaks, **kw))
    assert ev.values(ts, radii).tobytes() == whole.tobytes()
    assert rows == [4] * 7       # 28 pairs with R > 0, one row each


_PEAK_OFFSETS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def theta_breaks_oracle(t, R, gap, cap):
    """The boundary integral's breaks for one pair, built on their own: the
    rule that ``_line_breaks`` applies to a whole block of pairs at once."""
    hi = R - gap
    peaks = np.abs(t + np.outer((-1.0, 1.0), _PEAK_OFFSETS)).ravel()
    s = np.r_[np.linspace(0.0, hi, min(12, max(4, math.ceil(hi / 2.0))) + 1)[:-1],
              peaks[(peaks > 0.0) & (peaks < hi)]]
    return np.unique(np.r_[np.arcsin(s / R), cap])


@st.composite
def line_pairs(draw):
    """(t, R) with R from 1e-6 to 700, log-uniform, and t anywhere in
    [-1e3, 1e3], at a peak offset t = +-d, or where a peak |t -+ d| lands on
    the end R - gap of the equal panels."""
    R = min(700.0, 10.0 ** draw(st.floats(-6.0, math.log10(700.0))))
    hi = R - min(0.5, 0.25 * R)
    d = draw(st.sampled_from(_PEAK_OFFSETS)) * draw(st.sampled_from((-1.0, 1.0)))
    t = draw(st.one_of(st.floats(-1e3, 1e3), st.just(d), st.just(hi - d), st.just(-hi - d)))
    return t, R


@settings(max_examples=150, deadline=None)
@given(st.lists(line_pairs(), min_size=1, max_size=12))
@example([(0.25, 1.0), (-0.5, 1.0), (0.5, 1.0), (7.0, 8.0), (-7.0, 8.0), (15.5, 8.0),
          (0.0, 1e-6), (-1e3, 700.0), (1e3, 2.0), (8.0, 30.0)])
def test_line_breaks_equal_the_per_pair_rule(pairs):
    # every row of the block is the per-pair rule's array, bit for bit: the
    # peaks dropped at 0 and at R - gap, its duplicates and the pads all go
    ts, Rs = (np.array(v) for v in zip(*pairs))
    gaps, caps = wk._cap_breaks(Rs)
    rows = wk._line_breaks(ts, Rs)
    assert len(rows) == len(pairs)
    for row, t, R, gap, cap in zip(rows, ts, Rs, gaps, caps):
        alone = theta_breaks_oracle(float(t), float(R), float(gap), cap)
        assert row.tobytes() == alone.tobytes(), (t, R)


@pytest.mark.parametrize("R", [0.0, 1.0])
def test_kernel_rejects_non_finite_t(h3_geometry, exp_profile, R):
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError):
            ev.value(t, R)
        with pytest.raises(UsageError):
            ev.values(np.array([1.0, t]), R)


@pytest.mark.parametrize("name,family,param", [("h3", "exponential", 1.0),
                                               ("h4", "rational", 8.0),
                                               ("h2", "bump", 2.0),
                                               ("ch2", "exponential", 1.0)])
def test_kernel_refuses_t_past_the_table(name, family, param):
    # the table's unit chunks [k, k + 1) hold their points through |v| = 2^52
    ev = _evaluator(name, family, param)
    top = 2.0 ** 52
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        vals = [ev.value(top, 0.0), ev.value(-top, 0.0), ev.value(top - 2.0, 2.0)]
    assert all(np.isfinite(v) for v in vals)
    for t, R in ((top + 1.0, 0.0), (top - 1.0, 2.0), (1e17, 0.0), (-1e300, 0.5)):
        with pytest.raises(UsageError, match=r"2\^52"):
            ev.value(t, R)
        with pytest.raises(UsageError, match=r"2\^52"):
            ev.values(np.array([1.0, t]), R)


def test_dispersive_refuses_t_past_the_table(h3_geometry, exp_profile):
    with pytest.raises(UsageError, match=r"2\^52"):
        sw.dispersive_bound(h3_geometry, exp_profile, 1e17, 4.0)


# -- exact kernels on odd-dimensional real hyperbolic spaces ---------------------
#
# On H^n, n = 2k + 1 (m_alpha = 2k, m_2alpha = 0), the shift-operator form of
# the spherical function (Helgason, Groups and Geometric Analysis, ch. IV;
# Koornwinder 1984) is |c(r)|^-2 phi_r(R) = c_k D^k cos(rR), D = (1/sinh R) d/dR.
# So the kernel of exp:beta is c_k D^k [G(t + R) + G(t - R)], G(v) = 1/(beta - iv).

def _odd_hyperbolic(n):
    return sw.rank_one_geometry(RootDatum(1, (ReducedRoot((1.0,), n - 1, 0),)))


def _gk_density(k, r):
    """|c(r)|^-2 on H^(2k+1) by the Gindikin-Karpelevich product, with c(-i rho) = 1."""
    def c(y):
        return (mp.mpf(2) ** (-1j * y) * mp.gamma(1j * y)
                / (mp.gamma((k + 1 + 1j * y) / 2) * mp.gamma((k + 1j * y) / 2)))
    return 1 / abs(c(r) / c(-1j * k)) ** 2


def shift_constant(k):
    """c_k, from phi_r(0) = 1: as R -> 0, D^k cos(rR) tends to (-1)^k r^2
    prod_{1<=j<k} (j^2 + r^2) / (2k - 1)!!, and |c(r)|^-2 = C_k r^2
    prod_{1<=j<k} (j^2 + r^2), so c_k = (-1)^k (2k - 1)!! C_k."""
    r = mp.mpf("0.7")
    C = _gk_density(k, r) / (r**2 * mp.fprod(j**2 + r**2 for j in range(1, k)))
    return (-1) ** k * mp.fac2(2 * k - 1) * C


def _shifted(k, f, R):
    """D^k f at R, by k nested mp.diff."""
    for _ in range(k):
        f = (lambda g: lambda x: mp.diff(g, x) / mp.sinh(x))(f)
    return f(mp.mpf(R))


def odd_kernel_oracle(k, t, R, beta=1.0):
    """The kernel of exp:beta on H^(2k+1) at (t, R), to 40 digits."""
    def pair(x):
        return 1 / (beta - 1j * (t + x)) + 1 / (beta - 1j * (t - x))
    with mp.workdps(40):
        return complex(shift_constant(k) * _shifted(k, pair, R))


def test_shift_constants_come_from_the_c_function():
    with mp.workdps(40):
        for k, want in ((1, -1), (2, mp.mpf(1) / 12), (3, mp.mpf(-1) / 240)):
            assert abs(shift_constant(k) - want) <= mp.mpf(10) ** -35, k
            # the package's density has the same normalisation, and the
            # shift-operator form gives phi at a generic point
            geom, r, R = _odd_hyperbolic(2 * k + 1), 1.3, 0.9
            dens = _gk_density(k, mp.mpf(r))
            assert float(geom.cfun.density(np.array([[r]]))[0]) == pytest.approx(float(dens),
                                                                                rel=1e-14)
            phi = shift_constant(k) * _shifted(k, lambda x: mp.cos(r * x), R) / dens
            assert float(phi) == pytest.approx(phi_jacobi_oracle(geom, r, R), rel=1e-14), k
    # k = 1 is criterion 8's closed form on H^3
    for t, R in ((3.0, 1.0), (10.0, 0.5), (0.0, 40.0), (20.0, 60.0)):
        ref = h3_closed_kernel(t, R)
        assert abs(odd_kernel_oracle(1, t, R) - ref) <= 1e-14 * abs(ref), (t, R)


_ITEM_1 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: F(v) at large |v| comes from Filon sums whose floor, about "
    "eps int|A|, passes F's leading term A''(0)/(iv)^3; integration by parts at "
    "r = 0 mends it"))


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("t,R", [(10.0, 0.5), (100.0, 2.0), (0.0, 40.0), (20.0, 60.0),
                                 pytest.param(1e3, 0.5, marks=_ITEM_1),
                                 pytest.param(1e4, 0.5, marks=_ITEM_1)])
def test_odd_hyperbolic_kernel_against_the_shift_oracle(n, t, R):
    ev = sw.KernelEvaluator(_odd_hyperbolic(n), sw.Profile("exponential", 1.0))
    ref = odd_kernel_oracle((n - 1) // 2, t, R)
    assert abs(ev.value(t, R) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("name", ["h2", "h3", "h4", "ch2", "H5"])
def test_kernel_decays_like_t_to_the_minus_nu(name):
    # the paper's pointwise decay |k(t, R)| ~ t^-nu at fixed R, on every preset
    geom = _odd_hyperbolic(5) if name == "H5" else sw.rank_one_geometry(name)
    ts = np.array([50.0, 100.0, 200.0, 400.0])
    vals = sw.KernelEvaluator(geom, sw.Profile("exponential", 1.0)).values(ts, 0.5)
    slope = np.polyfit(np.log(ts), np.log(np.abs(vals)), 1)[0]
    assert abs(slope + geom.nu) <= 0.05, slope


# -- tabulated profile transform -------------------------------------------------

def _evaluator(name, family, param):
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


def test_h4_rational_kernel_matches_stored_references():
    # mpmath kernel values of h4/rational:8 at R = 0.5, from bench/refs.json
    # (written by bench/make_refs.py at 20 digits); the transform builds without
    # an AccuracyWarning
    refs = {15.931155007797706: -2.1486137722563846e-06 - 0.00017447100953058733j,
            25.21653717435108: -5.414443722458473e-10 - 3.840270693070538e-05j,
            100.0: 3.267233790628452e-17 - 5.776381029562522e-07j}
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        ev = _evaluator("h4", "rational", 8.0)
        for t, ref in refs.items():
            assert abs(ev.value(t, 0.5) - ref) <= 1e-8 * abs(ref), t


def test_transform_table_h3_closed_form(h3_geometry, exp_profile):
    # int_0^inf r^2 e^{-r} e^{i r v} dr = 2 / (1 - i v)^3
    table = sw.KernelEvaluator(h3_geometry, exp_profile).transform
    v = np.linspace(-1.0, 10.0, 1101)
    closed = 2.0 / (1.0 - 1j * v) ** 3
    assert np.max(np.abs(table(v) - closed) / np.abs(closed)) <= 1e-12


def _flat_bytes(table):
    return tuple(a.tobytes() for a in table._flat)


def test_transform_table_chunks_independent_of_build_order():
    # h4/rational:8 splits the chunks next to v = 0, the rest stay whole
    points = [k + 0.5 for k in range(-4, 6)]
    forward = _evaluator("h4", "rational", 8.0).transform
    for v in points:
        forward(v)
    sw.wave_kernel._transform_table.cache_clear()
    backward = _evaluator("h4", "rational", 8.0).transform
    for v in reversed(points):
        backward(np.array([v, v - 0.25]))
    sw.wave_kernel._transform_table.cache_clear()
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
    assert forward is not backward and backward is not threaded
    keys, lefts = forward._flat[:2]
    assert np.array_equal(keys, np.floor(points)) and len(lefts) > len(keys)
    assert _flat_bytes(backward) == _flat_bytes(forward)
    assert _flat_bytes(threaded) == _flat_bytes(forward)


def test_transform_table_second_lookup_builds_nothing(h3_geometry, exp_profile):
    table = sw.KernelEvaluator(h3_geometry, exp_profile).transform
    inner, calls = table.f, []
    table.f = lambda v: calls.append(len(v)) or inner(v)
    v = np.linspace(-3.0, 7.0, 500)
    first = table(v)
    assert calls and len(table._flat[0]) == 11
    calls.clear()
    assert np.array_equal(table(v), first)
    assert calls == [] and len(table._flat[0]) == 11


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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_dispersive_rejects_non_finite_t(h3_geometry, exp_profile, t):
    with pytest.raises(UsageError):
        sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0)


@pytest.mark.parametrize("p", [np.nan, np.inf])
def test_dispersive_rejects_non_finite_p(h3_geometry, exp_profile, p):
    with pytest.raises(UsageError):
        sw.dispersive_bound(h3_geometry, exp_profile, 10.0, p)


def test_dispersive_bound_h3_values(h3_geometry, exp_profile):
    # the bound as the program computes it with the elementary Plancherel
    # density; test_dispersive_bound_h3_against_mpmath anchors these values
    known = {10.0: 0.04714612647984838, 20.0: 0.0020130993059742103,
             40.0: 0.00022356409154052805, 80.0: 2.7425126046911863e-05}
    for t, ref in known.items():
        val = sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0)
        assert abs(val - ref) <= 1e-13 * ref, t


def test_dispersive_bound_h3_against_mpmath(h3_geometry, exp_profile):
    # an independent route to the values above: mpmath integrates criterion
    # 8's closed-form kernel against phi_0 sinh^2 R = R sinh R over the same
    # [0, bound_radius]; measured 7.5e-7, 7.3e-8, 7.7e-13 and 1.2e-11 relative
    # at t = 10, 20, 40 and 80, inside the rule's certified 1e-3
    rmax = sw.wave_kernel.bound_radius(h3_geometry, 4.0)
    with mp.workdps(30):
        for t in (10.0, 20.0, 40.0, 80.0):
            def weighted(R, t=mp.mpf(t)):
                k = ((1 - 1j * (t + R)) ** -2 - (1 - 1j * (t - R)) ** -2) / (1j * mp.sinh(R))
                return abs(k) ** 2 * R * mp.sinh(R)
            pts = sorted({0.0, rmax} | {x for x in (t - 4.0, t, t + 4.0) if 0.0 < x < rmax})
            ref = float(mp.sqrt(mp.quad(weighted, pts)))
            val = sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0)
            assert abs(val - ref) <= 1e-5 * ref, t


def test_dispersive_bound_reads_the_table_once_per_order(h3_geometry, exp_profile,
                                                          monkeypatch):
    # each outer integrand call (orders 6 and 12 together, then 24 alone) is
    # one values call; its pairs' inner integrals read the table once per
    # integrand call, at t - s and t + s together.  Each inner pass (orders 10
    # and 20, then 40) packs its rows' slices, each a whole row at one order,
    # rows in order, into calls of at most 2^14 nodes, each but a pass's last
    # too full to take one more slice, which is the fewest such calls there
    # are; one radius at a time took 2,710 reads
    reads, levels, calls = [], [], {}
    read, values, integrate = wk.ChebTable.__call__, wk.KernelEvaluator.values, wk.integrate_panels
    monkeypatch.setattr(wk.ChebTable, "__call__",
                        lambda self, v: reads.append(np.size(v)) or read(self, v))
    monkeypatch.setattr(wk.KernelEvaluator, "values",
                        lambda self, t, R: levels.append(np.size(R)) or values(self, t, R))

    def counted(f, breaks, **kw):
        if np.ndim(breaks[0]) == 0:          # the outer R-integral
            return integrate(f, breaks, **kw)
        panels, key = np.array([len(b) - 1 for b in breaks]), len(calls)

        def g(nodes):
            per_row = np.bincount(nodes["row"], minlength=len(panels))
            live = per_row > 0
            assert np.all(per_row[live] % panels[live] == 0)       # whole rows
            per_panel = set((per_row[live] // panels[live]).tolist())
            # the first pass's calls hold orders 10, 20 or both of a row, and
            # a later pass's one order; keyed by the pass's largest order
            order = 20 if max(per_panel) <= 30 else per_panel.pop()
            assert order == 20 or not per_panel
            calls.setdefault((key, order, panels.max()), []).append(nodes.size)
            return f(nodes)
        return integrate(g, breaks, **kw)

    monkeypatch.setattr(wk, "integrate_panels", counted)
    sw.dispersive_bound(h3_geometry, exp_profile, 40.0, 4.0)
    assert 1 <= len(levels) <= 3 and min(levels) > 1
    sizes = [n for level in calls.values() for n in level]
    assert len(reads) == len(sizes) and sorted(reads) == sorted(2 * n for n in sizes)
    assert max(sizes) <= 1 << 14
    for (_, order, widest), level in calls.items():
        assert all(n > (1 << 14) - order * widest for n in level[:-1])
    assert len(reads) < 40


def traced_peak(fn):
    """fn() and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_values_of_a_bound_level_hold_little_memory(h3_geometry, exp_profile):
    # the bound's first outer call: 450 radii at orders 6 and 12, one values
    # call.  Integrand calls of at most 2^14 nodes and table lookups that form
    # their indices per block keep its peak at 6.1 MB (measured); one call of
    # all 256 pairs of a block at orders 10 and 20 peaked at 19.7 MB
    breaks = wk._bound_breaks(h3_geometry, 4.0)
    Rs = np.concatenate([gl_panels(breaks[:-1], breaks[1:], order)[0] for order in (6, 12)])
    assert Rs.size == 450
    ev = sw.KernelEvaluator(h3_geometry, exp_profile)
    warm = ev.values(40.0, Rs)
    again, peak = traced_peak(lambda: ev.values(40.0, Rs))
    assert again.tobytes() == warm.tobytes()
    assert peak <= 7e6, peak


def test_phi_caps_of_many_panels_hold_little_memory():
    # lam = 3e5 at R = 2 gives the caps 47,747 panels, one row of 477,470 nodes
    # at order 10: slices of at most 2^14 nodes, summed one by one and added
    # by math.fsum, keep the peak at 17.4 MB (measured), where a node-sized
    # buffer of products per order took 48.4 MB and one call of every node
    # 131.5 MB; the value is 1.64e-11 from the hyp2f1 oracle, as it was then
    val, peak = traced_peak(lambda: sw.phi_rank1(sw.rank_one_geometry("h2"), 3e5, 2.0))
    assert val.hex() == (0.00041332662187598885).hex()
    assert peak <= 25e6, peak


@pytest.mark.parametrize("name", ["h2", "h4", "ch2"])
def test_phi_at_lam_zero_does_not_depend_on_the_largest_lam_of_its_batch(name):
    # lam = 3e4 gives every column of the caps row hundreds of panels, so the
    # row is cut into several slices, whose sums math.fsum adds: lam = 0 stays
    # within 5e-15 of phi_0 (3.8e-15, 2.8e-15 and 1.2e-15 for h2, h4 and ch2,
    # measured), where one numpy sum over the row's nodes missed by 1.0e-14,
    # 1.1e-14 and 9.1e-15
    geom = sw.rank_one_geometry(name)
    for R in (0.3, 2.0, 5.0, 10.0, 20.0):
        phi0 = sw.phi_zero(geom, R)
        assert abs(sw.phi_rank1(geom, [0.0, 3e4], R)[0] - phi0) <= 5e-15 * abs(phi0), R


def counted_phi_zero(monkeypatch):
    """The number of radii of every phi_zero call."""
    calls, phi_zero = [], wk.phi_zero
    monkeypatch.setattr(wk, "phi_zero",
                        lambda geom, R: calls.append(np.size(R)) or phi_zero(geom, R))
    return calls


def test_dispersive_sweep_forms_phi0_once_per_order(h3_geometry, exp_profile, monkeypatch):
    # phi_0 and D at the outer radii depend on (geometry, p) alone, so a
    # sweep over t forms them once per node set of the outer integrand's
    # calls, not once per t
    calls, levels, values = counted_phi_zero(monkeypatch), [], wk.KernelEvaluator.values
    monkeypatch.setattr(wk.KernelEvaluator, "values",
                        lambda self, t, R: levels.append(np.size(R)) or values(self, t, R))
    for t in (10.0, 20.0, 40.0):
        sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0)
    assert len(levels) >= 3           # each bound calls its integrand at least once
    assert sorted(calls) == sorted(set(levels)) and len(calls) < len(levels)


def test_dispersive_bound_equal_on_cold_and_warm_radial_weights(h3_geometry, exp_profile):
    sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 4.0)
    ts = (10.0, 40.0, 80.0)
    warm = [sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0) for t in ts]
    cold = []
    for t in ts:
        wk._radial_weight.cache_clear()
        cold.append(sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0))
    assert np.array(warm).tobytes() == np.array(cold).tobytes()


def test_radial_weights_are_kept_per_exponent(h3_geometry, exp_profile, monkeypatch):
    # p = 6 ends the outer integral at a smaller radius, so it cannot reuse p = 4's nodes
    assert wk.bound_radius(h3_geometry, 6.0) < wk.bound_radius(h3_geometry, 4.0)
    calls = counted_phi_zero(monkeypatch)
    four = sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 4.0)
    seen = len(calls)
    six = sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 6.0)
    assert seen >= 1 and len(calls) > seen
    assert wk._radial_weight.cache_info().currsize == len(calls)
    wk._radial_weight.cache_clear()
    assert sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 6.0) == six
    assert sw.dispersive_bound(h3_geometry, exp_profile, 20.0, 4.0) == four


def test_concurrent_bounds_form_each_radial_weight_once(h3_geometry, exp_profile,
                                                         monkeypatch):
    ts = (10.0, 20.0, 40.0) * 2
    alone = [sw.dispersive_bound(h3_geometry, exp_profile, t, 4.0) for t in ts[:3]]
    wk._radial_weight.cache_clear()
    calls, got, errors = counted_phi_zero(monkeypatch), {}, []

    def worker(i):
        try:
            got[i] = sw.dispersive_bound(h3_geometry, exp_profile, ts[i], 4.0)
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(ts))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    assert 1 <= len(calls) <= 3 and len(set(calls)) == len(calls)
    assert [got[i] for i in range(len(ts))] == alone * 2


@pytest.mark.parametrize("name", ["h2", "h4", "ch2", "H5"])
def test_dispersive_bound_decays_on_every_rank_one_preset(name):
    # the paper's L^p' - L^p decay at p = 4: the slope of log bound against
    # log t over t = 10 to 80 is at most -2.8; measured -3.747 (h2), -3.213
    # (h4), -3.007 (ch2) and -3.013 (H^5)
    geom = _odd_hyperbolic(5) if name == "H5" else sw.rank_one_geometry(name)
    ts = np.array([10.0, 20.0, 40.0, 80.0])
    bounds = [sw.dispersive_bound(geom, sw.Profile("exponential", 1.0), t, 4.0) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(bounds), 1)[0]
    assert slope <= -2.8, slope


def test_dispersive_even_dimension_at_large_radius():
    # phi_0 for h4 used to raise past R ~ 19.5, inside this bound's range
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        val = sw.dispersive_bound(sw.rank_one_geometry("h4"), sw.Profile("exponential", 1.0),
                                  10.0, 4.0)
    assert np.isfinite(val) and val > 0.0


def test_dispersive_bound_ch2_against_the_disc_rule():
    # the value a tensor rule on the unit disc gave in minutes, certified to 0.1 %
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        val = sw.dispersive_bound(sw.rank_one_geometry("ch2"), sw.Profile("exponential", 1.0),
                                  10.0, 4.0)
    assert abs(val - 6.830443871136595e-4) <= 1e-3 * 6.830443871136595e-4


def test_radii_outside_double_range_refused():
    # h3 stops at R = 700, where e^{-rho R} nears the smallest normal double;
    # h4's sinh^2 R stops it at 350, and tiny radii underflow sinh^2 R and z
    h3, h4 = sw.rank_one_geometry("h3"), sw.rank_one_geometry("h4")
    ev = sw.KernelEvaluator(h3, sw.Profile("exponential", 1.0))
    for call in (lambda: sw.phi_rank1(h3, 1.0, 800.0), lambda: sw.phi_zero(h3, [1.0, 800.0]),
                 lambda: ev.values(5.0, np.array([0.5, 800.0])),
                 lambda: sw.phi_rank1(h4, 1.0, 351.0), lambda: sw.phi_zero(h4, 1e-200)):
        with pytest.raises(UsageError, match="double range"):
            call()
    assert 0.0 < sw.phi_zero(h3, 700.0) < 1e-300
    assert sw.phi_zero(h4, 1e-150) == pytest.approx(1.0)


def test_dispersive_bound_names_the_smallest_p_that_fits(h3_geometry, exp_profile):
    # at p = 2.3 the bound runs out to R = 476, past where sinh^2 R overflows
    # (R = 355.6); p = 2.4 runs out to 354.5
    for p in (2.2, 2.3):
        with pytest.raises(OutOfRangeError, match=r"smallest p .* is 2\.399"):
            sw.dispersive_bound(h3_geometry, exp_profile, 10.0, p)
    assert sw.dispersive_bound(h3_geometry, exp_profile, 10.0, 2.4) == 2.9985933550300903
    # the refusal names the true radius, 3115 at p = 2.05, not a clipped one
    with pytest.raises(OutOfRangeError, match=r"smallest p .* is 2\.399") as err:
        sw.dispersive_bound(h3_geometry, exp_profile, 10.0, 2.05)
    assert float(re.search(r"R = ([0-9.e+]+),", str(err.value)).group(1)) > 2000.0


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
