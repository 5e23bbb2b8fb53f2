import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0
from scipy.special import iv, jv

import sympwave as sw
from sympwave import model_integral
from sympwave.errors import DivergenceError, NormalizationError, ResolutionError, UsageError

from conftest import counted_xi_builds, j0_series

E2 = np.array([1.0, 0.0])
E3 = np.array([1.0, 0.0, 0.0])


def radial_closed_l3(r, h, sigma_of_r):
    return 4.0 * np.pi * r * sigma_of_r * np.sin(h * r) / h


# -- rotations ---------------------------------------------------------------

def test_rotation_identity():
    assert np.allclose(sw.rotate_to_axis(E2), np.eye(2), atol=1e-14)


def test_rotation_quarter_turn():
    J = sw.rotate_to_axis(np.array([0.0, 1.0]))
    assert np.allclose(np.linalg.solve(J, np.array([0.0, 1.0])), [1.0, 0.0], atol=1e-14)


def test_rotation_orthogonality_random():
    rng = np.random.default_rng(2)
    for l in (2, 3, 4):
        for _ in range(5):
            E = rng.normal(size=l)
            E /= np.linalg.norm(E)
            J = sw.rotate_to_axis(E)
            assert np.linalg.norm(J.T @ J - np.eye(l)) <= 1e-14
            assert np.allclose(J @ np.eye(l)[0], E, atol=1e-14)


def test_rotation_rejects_non_unit():
    with pytest.raises(NormalizationError):
        sw.rotate_to_axis(np.array([1.0, 1.0]))


# -- the sphere slice average -----------------------------------------------

def test_dr_radial_is_sigma_times_area():
    sym = sw.gaussian_symbol(3)
    J = sw.rotate_to_axis(E3)
    r = 1.3
    for th in (0.0, 0.7, 2.2):
        val = sw.d_r(sym, J, r, th)
        assert val == pytest.approx(np.exp(-r * r) * sw.sphere_area(1), rel=1e-12)


def test_dr_constant_symbol_circle_area():
    one = sw.Symbol(3, lambda lam: np.ones(np.asarray(lam).shape[:-1], dtype=complex), 0, 0.0)
    val = sw.d_r(one, np.eye(3), 2.0, 1.0)
    assert val == pytest.approx(2.0 * np.pi, rel=1e-13)


def test_dr_two_branch_fold():
    lin = sw.Symbol(2, lambda lam: np.asarray(lam)[..., 0] + 0j, 1, 1.0)
    val = sw.d_r(lin, np.eye(2), 1.3, 0.4)
    assert val == pytest.approx(2.0 * 1.3 * np.cos(0.4), rel=1e-13)


def test_dr_rank_one_rejected():
    sym = sw.Symbol(1, lambda lam: np.ones(np.asarray(lam).shape[:-1], dtype=complex), 0, 0.0)
    with pytest.raises(UsageError):
        sw.d_r(sym, np.eye(1), 1.0, 0.3)


@pytest.mark.parametrize("l", [2, 3])
def test_dr_of_no_theta_is_an_empty_complex_array(l):
    out = sw.d_r(sw.gaussian_symbol(l), np.eye(l), 1.0, np.array([]))
    assert out.shape == (0,) and out.dtype == complex


def test_dr_runs_the_probe_once_per_key(monkeypatch):
    probes, level = [], model_integral._sphere_level
    monkeypatch.setattr(model_integral, "_sphere_level", lambda *a: probes.append(a) or level(*a))
    sym, J, r = sw.gaussian_symbol(3), sw.rotate_to_axis(E3), 1.3
    thetas = (0.0, 0.7, np.array([2.2, 3.0]))
    vals = [sw.d_r(sym, J, r, th) for th in thetas]
    assert len(probes) == 1
    # each call has the bits of the sphere sum at the level its own probe finds
    for th, val in zip(thetas, vals):
        ref = model_integral._sphere_sum(sym, J, r, th, level(sym, J, r))
        assert np.asarray(val).tobytes() == np.asarray(ref).tobytes()


def test_xi_decomposition_reads_d_r_through_its_module_name(monkeypatch):
    # wrapped as a tracer wraps a layer: on every module attribute bound to it
    points, original = [], model_integral.d_r

    def traced(*args, **kwargs):
        points.append(np.size(args[3]))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sympwave" or name.startswith("sympwave.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, traced)
    sw.clear_caches()
    sw.xi_decompose(sw.gaussian_symbol(3), E3, 1.0, 10.0)
    assert points and sum(points) > 0


# -- xi by direct quadrature --------------------------------------------------

def test_xi_direct_l3_sinc_closed_form():
    sym = sw.gaussian_symbol(3)
    val = sw.xi_direct(sym, E3, 1.0, 20.0)
    assert abs(val - radial_closed_l3(1.0, 20.0, math.exp(-1.0))) <= 1e-10


def test_xi_direct_l2_bessel_series_oracle():
    sym = sw.gaussian_symbol(2)
    for (r, h) in [(1.0, 5.0), (0.7, 12.0), (2.0, 3.0)]:
        val = sw.xi_direct(sym, E2, r, h)
        ref = 2.0 * np.pi * r * math.exp(-r * r) * j0_series(h * r)
        assert abs(val - ref) <= 1e-10


def gaussian_xi(l, r, h):
    """xi of the Gaussian on R^l: r^(l-1) e^(-r^2) (2 pi)^(l/2) (hr)^(1-l/2) J_(l/2-1)(hr)."""
    return (r ** (l - 1) * math.exp(-r * r) * (2.0 * math.pi) ** (l / 2.0)
            * (h * r) ** (1.0 - l / 2.0) * jv(l / 2.0 - 1.0, h * r))


@pytest.mark.parametrize("l", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("h", [10.0, 80.0, 400.0])
def test_xi_direct_gaussian_closed_form(l, r, h):
    E = np.eye(l)[0]
    assert abs(sw.xi_direct(sw.gaussian_symbol(l), E, r, h) - gaussian_xi(l, r, h)) <= 1e-12


def shifted_gaussian_symbol(a):
    a = np.asarray(a, dtype=float)
    return sw.Symbol(len(a), lambda lam: np.exp(-np.sum((np.asarray(lam) - a) ** 2, axis=-1)) + 0j,
                     vanishing_order=0, growth_exponent=0.0, label="shifted gauss")


@pytest.mark.parametrize("l", [3, 4, 5])
def test_xi_direct_shifted_gaussian_closed_form(l):
    # sigma = exp(-|lam - a|^2) is not constant on a sphere slice, so the
    # sphere rule's level matters: xi = r^(l-1) e^(-r^2-|a|^2) int_(S^(l-1))
    # e^(<w, 2 r a + i h r E>) dw, and the sphere integral of e^(<w, v>) is
    # (2 pi)^(l/2) k^(1-l/2) I_(l/2-1)(k) with k^2 = <v, v>, even in k
    a = np.array([0.3, -0.4, 0.5, 0.2, -0.1])[:l]
    E = np.ones(l) / math.sqrt(l)
    for r in (0.5, 1.0, 2.0):
        sym = shifted_gaussian_symbol(a)
        for h in (5.0, 20.0, 80.0):
            k = np.sqrt(complex(4.0 * r * r * (a @ a) - h * h * r * r, 4.0 * h * r * r * (E @ a)))
            ref = (r ** (l - 1) * math.exp(-r * r - a @ a) * (2.0 * math.pi) ** (l / 2.0)
                   * k ** (1.0 - l / 2.0) * iv(l / 2.0 - 1.0, k))
            assert abs(sw.xi_direct(sym, E, r, h) - ref) <= 1e-9 * abs(ref), (r, h)


def test_unresolved_sphere_average_raises_before_the_budget():
    # a step across the slice: the azimuth rule converges like 1/n, so no two
    # levels agree to 1e-11 below 2^19 points
    points = []

    def step(lam):
        lam = np.asarray(lam)
        points.append(lam.size // lam.shape[-1])
        return np.where(lam[..., 1] > 0.1, 1.0, 0.0) + 0j

    sym = sw.Symbol(3, step, vanishing_order=0, growth_exponent=0.0, label="step")
    with pytest.raises(ResolutionError, match=r"^sphere rule at rank 3: level 16 moves by .*, and "
                                              r"level 17 would pass the budget of 524288 points$"):
        sw.d_r(sym, np.eye(3), 1.0, 0.5)
    # the probe's three colatitudes at levels 0-16; level 17 alone would add 3 * 2^20
    assert sum(points) == 3 * 8 * (2**17 - 1)
    with pytest.raises(ResolutionError, match="budget of 524288 points"):
        sw.xi_direct(sym, E3, 1.0, 10.0)


def test_xi_direct_h_zero_sphere_area():
    one3 = sw.Symbol(3, lambda lam: np.ones(np.asarray(lam).shape[:-1], dtype=complex), 0, 0.0)
    val = sw.xi_direct(one3, E3, 1.5, 0.0)
    assert val == pytest.approx(4.0 * np.pi * 1.5**2, rel=1e-10)


def test_xi_direct_radial_is_real():
    sym = sw.gaussian_symbol(2)
    val = sw.xi_direct(sym, E2, 1.2, 17.0)
    assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)


def test_xi_direct_vanishing_order_propagates():
    sym = sw.quadratic_gaussian_symbol(3)
    rs = np.geomspace(1e-3, 1e-1, 7)
    ratios = [abs(sw.xi_direct(sym, E3, r, 5.0)) / r ** (3 - 1 + 2) for r in rs]
    assert max(ratios) <= 10.0 * max(ratios[-1], 1e-12)


# -- the pole amplitudes --------------------------------------------------------

@pytest.fixture(scope="module")
def fam3():
    return sw.QFamily(sw.gaussian_symbol(3), E3, 1.0)


def test_q_derivatives_at_zero(fam3):
    l = 3
    D0 = sw.d_r(sw.gaussian_symbol(3), np.eye(3), 1.0, 0.0)
    expected = 2.0 ** ((l - 1) / 2.0) * math.factorial(l - 2) * np.conj(D0)
    for k in range(l - 2):
        assert abs(fam3.amps[0].q.proxy_deriv(k)(0.0)) <= 1e-9 * abs(expected)
    assert fam3.amps[0].q.proxy_deriv(l - 2)(0.0) == pytest.approx(expected, rel=1e-8)


def test_boundary_cancellation(fam3):
    for m in range(4):
        qd, qtd = (a.q1.deriv(m, np.array([1.0]))[0] for a in fam3.amps)
        assert abs((-1.0) ** (m + 1) * np.conj(qd) + qtd) <= 1e-7


def test_radial_q_tilde_equals_q(fam3):
    us = np.linspace(0.0, 1.5, 40)
    assert np.max(np.abs(fam3.amps[0].q(us) - fam3.amps[1].q(us))) <= 1e-10


def test_q_support(fam3):
    assert fam3.amps[0].q(1.45) == 0.0
    assert fam3.amps[0].q1(2.5) == 0.0
    assert abs(fam3.amps[0].q(0.5)) > 0.0


# -- the decomposition ---------------------------------------------------------

def decomposition_gap(dec):
    return abs(dec.direct - (dec.main + dec.R0 + dec.R1 + dec.R2))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("h", [10.0, 25.0, 50.0])
def test_identity_l3_gaussian(r, h):
    dec = sw.xi_decompose(sw.gaussian_symbol(3), E3, r, h)
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9
    closed = radial_closed_l3(r, h, math.exp(-r * r))
    assert abs(dec.direct - closed) <= 1e-8


def test_identity_l2_nonradial_complex_symbol():
    def f(lam):
        lam = np.asarray(lam)
        return np.exp(-np.sum(lam**2, axis=-1)) * (1.0 + 0.3 * lam[..., 0] + 0.2j * lam[..., 1])
    sym = sw.Symbol(2, f, 0, 0.0)
    E = np.array([0.6, 0.8])
    dec = sw.xi_decompose(sym, E, 0.8, 12.0)
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9


def test_identity_l2_plancherel():
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    dec = sw.xi_decompose(sym, E2, 1.0, 20.0)
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "the main term takes the exact q''(0) and the remainders the proxy's, which "
    "misses it by 3.3e-6 relative, while the proxy's q'(0) = 8e-8 and "
    "q'''(0) = 5.6e-2 where both vanish: the fixed 1e-11 chop of the q proxy, "
    "amplified by endpoint derivatives; the identity misses by 3.1-4.1e-6 "
    "relative, while direct matches the closed form to 1e-15"))
def test_identity_l4_gaussian():
    E = np.eye(4)[0]
    dec = sw.xi_decompose(sw.gaussian_symbol(4), E, 1.0, 10.0)
    assert abs(dec.direct - gaussian_xi(4, 1.0, 10.0)) <= 1e-12
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9


def test_r0_two_expressions_agree():
    from sympwave.stationary_phase import k_n_zero
    l, r, h = 3, 1.0, 25.0
    x = h * r
    fam = sw.QFamily(sw.gaussian_symbol(3), E3, r)
    qd, qtd = (a.q.proxy_deriv(l - 1)(0.0) for a in fam.amps)
    kl0 = k_n_zero(l, x, 2)
    via_kn = (-1.0) ** l * (np.exp(1j * x) * np.conj(qd * kl0)
                            + np.exp(-1j * x) * qtd * kl0)
    gam = math.gamma(l / 2.0) / (2.0 * math.factorial(l - 1))
    closed = gam * (h * r) ** (-l / 2.0) * (
        np.exp(1j * x - 1j * np.pi * l / 4.0) * np.conj(qd)
        + np.exp(-1j * x + 1j * np.pi * l / 4.0) * qtd)
    assert abs(via_kn - closed) <= 1e-10 * max(abs(closed), 1e-12)


def test_default_M_choice():
    dec2 = sw.xi_decompose(sw.gaussian_symbol(2), E2, 1.0, 12.0)  # M = 1
    dec2b = sw.xi_decompose(sw.gaussian_symbol(2), E2, 1.0, 12.0, M=2)
    # totals agree although the split differs
    s1 = dec2.main + dec2.R0 + dec2.R1 + dec2.R2
    s2 = dec2b.main + dec2b.R0 + dec2b.R1 + dec2b.R2
    assert abs(s1 - s2) <= 1e-8 * abs(s1)


def test_decomposition_refuses_M_past_3():
    # from M = 4 on, the q1 proxies' derivative noise breaks the identity
    from sympwave.model_integral import check_decomposition
    sym = sw.gaussian_symbol(2)
    for M in (4, 9):
        with pytest.raises(UsageError, match=r"needs 0 <= M <= 3, got M = \d+$"):
            check_decomposition(1.0, M)
        with pytest.raises(UsageError, match=r"0 <= M <= 3"):
            sw.xi_decompose(sym, E2, 1.0, 10.0, M=M)
    dec = sw.xi_decompose(sym, E2, 1.0, 10.0, M=3)
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9


def test_main_term_constant_values():
    assert sw.main_term_constant(2) == pytest.approx(math.sqrt(2 * math.pi))
    assert sw.main_term_constant(3) == pytest.approx(2 * math.pi)


def fit_constant(l, r, hs, xi_vals, sigma_of_r):
    """Least squares for C in xi ~ C * shape + (D/hr) * quadrature shape."""
    phase = hs * r + np.pi * (1.0 - l) / 4.0
    base = 2.0 * sigma_of_r * np.cos(phase) * (r * hs) ** ((1 - l) / 2.0) * r ** (l - 1)
    correction = base * np.tan(phase) / (hs * r)
    A = np.stack([base, correction], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, np.real(xi_vals), rcond=None)
    return coeffs[0]


def test_constant_recovery_l3():
    r = 1.0
    hs = np.linspace(20.0, 40.0, 60)
    xi = np.array([radial_closed_l3(r, h, math.exp(-1.0)) for h in hs])
    C = fit_constant(3, r, hs, xi, math.exp(-1.0))
    assert C == pytest.approx(2 * np.pi, rel=1e-3)


def test_constant_recovery_l2():
    r = 1.0
    hs = np.linspace(25.0, 60.0, 160)
    xi = 2.0 * np.pi * r * math.exp(-1.0) * scipy_j0(hs * r)
    C = fit_constant(2, r, hs, xi, math.exp(-1.0))
    assert C == pytest.approx(math.sqrt(2 * np.pi), rel=1e-3)


# -- the Psi-weighted integral --------------------------------------------------

def test_i_psi_vanishing_overlap():
    prof = sw.Profile("bump", 1.0)
    def ring(lam):
        lam = np.asarray(lam)
        s = np.sqrt(np.sum(lam**2, axis=-1))
        return np.where(s > 3.0, np.exp(-((s - 4.0) ** 2)), 0.0) + 0j
    sym = sw.Symbol(2, ring, 0, 0.0)
    d, _ = sw.i_psi(sym, prof, 0.0, E2, 10.0)
    assert d == 0.0


def test_i_psi_remainder_bounded():
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    prof = sw.Profile("exponential", 1.0)
    vals = []
    for h in (10.0, 20.0, 40.0, 80.0, 160.0):
        d, m = sw.i_psi(sym, prof, 0.0, E2, h)
        vals.append(abs(d - m) * h)
    assert max(vals) <= 4.0 * vals[0]


def test_i_psi_truncation_counts_the_weight_and_the_symbol(monkeypatch):
    # the radial cut must count the weight r^(l-1) and the a2 Plancherel
    # symbol's r^6 growth, not psi alone: then both values hold when the same
    # integrals are taken 30 further out
    import sympwave.model_integral as mi
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    prof = sw.Profile("exponential", 1.0)
    d, m = sw.i_psi(sym, prof, 0.0, E2, 40.0)
    radius = mi.tail_radius
    monkeypatch.setattr(mi, "tail_radius", lambda *args: radius(*args) + 30.0)
    d_far, m_far = sw.i_psi(sym, prof, 0.0, E2, 40.0)
    assert abs(d - d_far) <= 1e-6 * abs(d_far)
    assert abs(m - m_far) <= 1e-6 * abs(m_far)


def test_i_psi_decay_slope():
    sym = sw.gaussian_symbol(2)
    prof = sw.Profile("exponential", 1.0)
    hs = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
    ds = [abs(sw.i_psi(sym, prof, 0.0, E2, h)[0]) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
    assert slope <= -0.5 + 0.1


def test_i_psi_direct_matches_bessel_transform():
    # gauss, exp:1, t = 0, E = e1: direct = 2 pi int_0^inf r e^(-r - r^2) J0(h r) dr.
    # Expanding e^(-r) and int_0^inf r^(k+1) e^(-r^2) J0(h r) dr
    # = Gamma(k/2 + 1) 1F1(k/2 + 1; 1; -h^2/4) / 2 gives
    # pi sum_k (-1)^k Gamma(k/2 + 1) / k! 1F1(k/2 + 1; 1; -h^2/4), whose terms
    # fall like (h^2/4)^(-k/2) here
    import mpmath as mp
    sym = sw.gaussian_symbol(2)
    prof = sw.Profile("exponential", 1.0)
    for h in (20.0, 80.0, 160.0, 320.0):
        with mp.workdps(30):
            a = [mp.mpf(k) / 2 + 1 for k in range(40)]
            ref = float(mp.pi * mp.fsum((-1) ** k * mp.gamma(a[k]) / mp.factorial(k)
                                        * mp.hyp1f1(a[k], 1, -mp.mpf(h) ** 2 / 4)
                                        for k in range(40)))
        d, _ = sw.i_psi(sym, prof, 0.0, E2, h)
        assert abs(d - ref) <= 1e-9 * abs(ref), h


def test_i_psi_l3_gaussian_against_the_radial_integral():
    # gauss, exp:1, t = 0, E = e1 at l = 3: direct = int_0^inf r^2 e^(-r - r^2)
    # 4 pi sin(h r) / (h r) dr = (4 pi / h) Im int_0^inf r e^(-r^2 - b r) dr
    # with b = 1 - i h, and int_0^inf r e^(-r^2 - b r) dr
    # = 1/2 - (b sqrt(pi) / 4) e^(b^2/4) erfc(b/2)
    import mpmath as mp
    prof = sw.Profile("exponential", 1.0)
    for h, tol in ((20.0, 1e-11), (80.0, 1e-8)):
        with mp.workdps(30):
            b = 1 - 1j * mp.mpf(h)
            ref = float(4 * mp.pi / h * mp.im(
                0.5 - b * mp.sqrt(mp.pi) / 4 * mp.exp(b * b / 4) * mp.erfc(b / 2)))
        d, _ = sw.i_psi(sw.gaussian_symbol(3), prof, 0.0, E3, h)
        assert abs(d - ref) <= tol * abs(ref), h


@pytest.mark.parametrize("t_phase,h", [(0.0, 0.0), (0.0, -1.0), (0.0, math.nan),
                                       (0.0, math.inf), (math.nan, 10.0), (-math.inf, 10.0)])
def test_i_psi_needs_finite_h_above_zero_and_finite_t(t_phase, h):
    sym, prof = sw.gaussian_symbol(2), sw.Profile("exponential", 1.0)
    with pytest.raises(UsageError, match=r"^i_psi needs a finite h > 0 and a finite t_phase, got "):
        sw.i_psi(sym, prof, t_phase, E2, h)


def test_i_psi_divergence_check():
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    thin = sw.Profile("rational", 2.0)
    with pytest.raises(DivergenceError):
        sw.i_psi(sym, thin, 0.0, E2, 10.0)


# -- declared symbol contracts ---------------------------------------------------

@pytest.mark.parametrize("make,l", [(sw.gaussian_symbol, 2),
                                    (sw.quadratic_gaussian_symbol, 3)])
def test_builtin_symbol_growth_and_vanishing(make, l):
    sym = make(l)
    rng = np.random.default_rng(1)
    for _ in range(4):
        e = rng.normal(size=l)
        e /= np.linalg.norm(e)
        ts = np.geomspace(0.1, 50.0, 30)
        vals = np.abs(np.asarray(sym.eval(ts[:, None] * e[None, :])))
        ratio = vals / (1.0 + ts) ** sym.growth_exponent
        assert np.all(np.isfinite(ratio)) and ratio.max() <= 10.0
        if sym.vanishing_order:
            eps = np.array([1e-2, 1e-3, 1e-4])
            small = np.abs(np.asarray(sym.eval(eps[:, None] * e[None, :])))
            near = small / eps**sym.vanishing_order
            assert near.max() <= 4.0 * near.min()


def test_plancherel_symbol_fields():
    cf = sw.CFunction(sw.preset("a2"))
    sym = sw.plancherel_symbol(cf)
    assert sym.dimension == 2
    assert sym.vanishing_order == 6
    assert sym.growth_exponent == 3.0


@pytest.mark.parametrize("make,l,r,h", [
    (sw.gaussian_symbol, 2, 1.0, 15.0),
    (sw.quadratic_gaussian_symbol, 2, 0.8, 20.0),
    (sw.quadratic_gaussian_symbol, 3, 1.2, 15.0),
])
def test_identity_across_builtin_family(make, l, r, h):
    sym = make(l)
    E = np.zeros(l)
    E[0] = 1.0
    dec = sw.xi_decompose(sym, E, r, h)
    assert decomposition_gap(dec) <= 1e-6 * abs(dec.direct) + 1e-9


# -- R1's shared k_n table and xi_direct's refinement cap ----------------------

def test_r1_integrals_share_k_n_per_node_set(monkeypatch):
    from sympwave import stationary_phase as sp
    from sympwave._quad import integrate_panels

    real_k_n = sp.k_n
    calls, node_sets = [], set()

    def counted(n, u, x, p):
        calls.append(len(u))
        node_sets.add(np.asarray(u).tobytes())
        return real_k_n(n, u, x, p)

    monkeypatch.setattr(sp, "k_n", counted)
    sym, r, h, l = sw.gaussian_symbol(3), 0.5, 10.0, 3
    dec = sw.xi_decompose(sym, E3, r, h)
    # R1 stops at order 64, and its first call takes orders 16, 32 and 64
    shared = len(calls)
    assert shared == len(node_sets) == 1

    # the unshared path: each pole's R1 integral evaluates k_n on its own
    # nodes, on ten panels below the cutoff and eight across its transition,
    # with integrate_panels' default first call: orders 16 and 32, then 64
    fam, x = sw.QFamily(sym, E3, r), h * r
    cut = fam.amps[0].q.cutoff
    lo, hi = math.sqrt(cut.lo), math.sqrt(cut.hi)
    breaks = np.concatenate([np.linspace(0.0, lo, 11), np.linspace(lo, hi, 9)[1:]])
    int_q, int_qt = (
        integrate_panels(lambda us, a=a: a.q.deriv(l, us) * counted(l, us, x, 2),
                         breaks, order0=16, tol=1e-12)
        for a in fam.amps)
    assert len(calls) - shared == 2 * 2
    R1 = (-1.0) ** l * (np.exp(1j * x) * np.conj(int_q) + np.exp(-1j * x) * int_qt) * r ** (l - 1)
    assert dec.R1 == complex(R1)


def test_xi_direct_l2_non_smooth_symbol_exits_3(monkeypatch, capsys):
    # |lam_1| has a kink, so D(arccos c) = 2 r |c| defeats every degree of the
    # fit rule; with h r < 2 the model sweep calls xi_direct alone
    from sympwave import harness
    from sympwave.cli import main
    kinked = sw.Symbol(2, lambda lam: np.abs(np.asarray(lam)[..., 0]) + 0j,
                       vanishing_order=0, growth_exponent=1.0, label="kink")
    with pytest.raises(ResolutionError, match=r"^xi_direct: Chebyshev tail .* at degree 4096$"):
        sw.xi_direct(kinked, E2, 1.0, 30.0)
    monkeypatch.setattr(harness, "gaussian_symbol", lambda l: kinked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["model", "--preset", "a2", "--r", "1", "--h-list", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numeric error: xi_direct: Chebyshev tail")


# -- the h-independent parts, built once per (symbol, E, r) ----------------------

def test_xi_direct_alone_builds_no_q_family(monkeypatch):
    builds = counted_xi_builds(monkeypatch)
    sym = sw.gaussian_symbol(3)
    vals = [sw.xi_direct(sym, E3, 1.0, h) for h in (5.0, 20.0, 40.0)]
    assert [len(b) for b in builds.values()] == [1, 0, 0]
    for h, val in zip((5.0, 20.0, 40.0), vals):
        assert abs(val - radial_closed_l3(1.0, h, math.exp(-1.0))) <= 1e-8
    # a decomposition at the same (symbol, E, r) reads D_r at the same level
    sw.xi_decompose(sym, E3, 1.0, 10.0)
    assert [len(b) for b in builds.values()] == [1, 1, 1]


def test_unresolved_parts_raise_on_every_call():
    # at r = 128 the a2 Plancherel proxies outgrow degree 4096; errors are not cached
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    for _ in range(2):
        with pytest.raises(ResolutionError, match=r"^q proxy, pole \+e1: .* at degree 4096$"):
            sw.xi_decompose(sym, E2, 128.0, 5.0)
    for _ in range(2):
        with pytest.raises(ResolutionError, match=r"^xi_direct: .* at degree 4096$"):
            sw.xi_direct(sym, E2, 128.0, 5.0)
