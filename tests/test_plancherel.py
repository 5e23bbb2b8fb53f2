import cmath
import warnings

import mpmath as mp
import numpy as np
import pytest

import sympwave as sw
from sympwave.root_data import ReducedRoot, RootDatum


@pytest.fixture(scope="module")
def cfuns():
    return {name: sw.CFunction(sw.preset(name)) for name in sw.PRESET_NAMES}


def test_normalization_all_presets(cfuns):
    for name, cf in cfuns.items():
        val = cf.c_function(-1j * cf.datum.rho)
        assert abs(val - 1.0) <= 1e-10, name


def test_root_hyperplane_is_infinite(cfuns):
    val = cfuns["h3"].c_function(np.array([0.0]))
    assert cmath.isinf(val)
    # a2 wall: lambda orthogonal to the first root only
    val = cfuns["a2"].c_function(np.array([0.0, 1.0]))
    assert cmath.isinf(val)


def test_conjugate_modulus(cfuns):
    cf = cfuns["h3"]
    a = cf.c_function(np.array([2.0]))
    b = cf.c_function(np.array([-2.0]))
    assert abs(abs(a) - abs(b)) <= 1e-12
    assert abs(b - np.conj(a)) <= 1e-12 * abs(a)


def test_density_h3_is_lambda_squared(cfuns):
    lam = np.array([[0.5], [2.0], [11.0]])
    dens = cfuns["h3"].density(lam)
    assert np.allclose(dens, lam[:, 0] ** 2, rtol=1e-10)


def test_density_zero_on_walls(cfuns):
    assert cfuns["h3"].density(np.array([0.0])) == 0.0
    assert cfuns["a2"].density(np.array([0.0, 0.0])) == 0.0


def _mp_density(datum, lam):
    """30-digit |c(lam)|^-2 from the loggamma product, normalised by c(-i rho) = 1."""
    def log_abs_c(lam):
        acc = mp.mpf(0)
        for root in datum.reduced_roots:
            a = [mp.mpf(float(x)) for x in root.vector]
            iy = 1j * mp.fsum(mp.mpmathify(l) * x for l, x in zip(lam, a)) / mp.fsum(x * x for x in a)
            m, m2 = mp.mpf(root.m_alpha), mp.mpf(root.m_2alpha)
            acc += mp.re(-iy * mp.log(2) + mp.loggamma(iy)
                         - mp.loggamma((m / 2 + 1 + iy) / 2) - mp.loggamma((m / 2 + m2 + iy) / 2))
        return acc
    return mp.exp(-2 * (log_abs_c(lam) - log_abs_c([-1j * mp.mpf(float(r)) for r in datum.rho])))


@pytest.mark.parametrize("datum", [sw.preset(name) for name in sw.PRESET_NAMES] + [
    RootDatum(1, (ReducedRoot((1.0,), m, m2),), name=name)
    for name, m, m2 in [("CH3", 4, 1), ("H6", 5, 0), ("HH2", 4, 3), ("OH2", 8, 7)]],
    ids=lambda d: d.name)
def test_density_against_mpmath_over_the_cli_range(datum):
    # the elementary per-root factors against the loggamma product, as far out
    # as a cfun sweep goes; the Lanczos sum missed by up to 1.3e-9 at 1e6
    cf = sw.CFunction(datum)
    s = np.geomspace(1e-3, 1e6, 37)
    if datum.rank == 1:
        lam = s[:, None]
    else:
        signs = np.random.default_rng(14).choice([-1.0, 1.0], size=(len(s), 2))
        lam = s[:, None] * np.array([0.6, 0.8]) * signs
    with mp.workdps(30):
        for row, val in zip(lam, cf.density(lam)):
            ref = _mp_density(datum, row)
            assert abs(val - ref) <= 1e-14 * ref, row


def test_ch2_density_at_large_lambda_is_finite_and_quiet(cfuns):
    # v^3 / tanh(pi v) stands for the sinh and cosh factors, which overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = cfuns["ch2"].density(np.array([[1e3], [1e5], [1e6]]))
    assert np.all(np.isfinite(dens))
    assert np.allclose(dens, np.pi / 32.0 * np.array([1e3, 1e5, 1e6]) ** 3, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", sw.PRESET_NAMES)
def test_density_goes_continuously_to_zero(cfuns, name):
    cf = cfuns[name]
    e = np.ones(cf.datum.rank) / np.sqrt(cf.datum.rank)
    s = np.geomspace(1e-13, 1e-3, 41)
    dens = cf.density(s[:, None] * e)
    assert np.all(dens > 0.0) and np.all(np.diff(dens) > 0.0)
    assert dens[0] <= 1e-20 and cf.density(0.0 * e) == 0.0


def test_a2_density_vanishes_on_each_wall(cfuns):
    cf = cfuns["a2"]
    for root in cf.datum.reduced_roots:
        a = root.as_array()
        wall = 1.3 * np.array([a[1], -a[0]])
        eps = np.geomspace(1e-12, 1e-4, 9)
        dens = cf.density(wall + eps[:, None] * a)
        assert cf.density(wall) == 0.0
        assert np.all(dens > 0.0) and np.all(np.diff(dens) > 0.0) and dens[0] <= 1e-20


@pytest.mark.parametrize("name,expected", [("h3", 2), ("a2", 6), ("ch2", 2)])
def test_small_lambda_slope(cfuns, name, expected):
    cf = cfuns[name]
    e = np.ones(cf.datum.rank)
    e /= np.linalg.norm(e)
    s = np.geomspace(1e-3, 1e-2, 20)
    dens = cf.density(s[:, None] * e[None, :])
    slope = np.polyfit(np.log(s), np.log(dens), 1)[0]
    assert slope == pytest.approx(expected, abs=0.01)


def test_small_lambda_slope_random_directions(cfuns):
    rng = np.random.default_rng(5)
    cf = cfuns["a2"]
    for _ in range(5):
        e = rng.normal(size=2)
        e /= np.linalg.norm(e)
        s = np.geomspace(1e-3, 1e-2, 20)
        dens = cf.density(s[:, None] * e[None, :])
        slope = np.polyfit(np.log(s), np.log(dens), 1)[0]
        assert slope == pytest.approx(2 * cf.datum.d, abs=0.05)


def test_large_lambda_growth_bounded(cfuns):
    for name, cf in cfuns.items():
        d = cf.datum
        e = np.ones(d.rank) / np.sqrt(d.rank)
        s = np.geomspace(1.0, 1e3, 40)
        dens = cf.density(s[:, None] * e[None, :])
        ratio = dens / s ** (d.n - d.rank)
        assert np.all(np.isfinite(ratio)), name
        assert ratio.max() <= 1e3 * max(ratio[0], 1e-12), name


def test_density_even_bitstable(cfuns):
    cf = cfuns["a2"]
    lam = np.array([0.37, -0.91])
    assert cf.density(lam) == cf.density(-lam)


def test_weyl_invariance(cfuns):
    cf = cfuns["a2"]
    lam = np.array([0.3, 0.7])
    dens = cf.density(lam)
    for img in sw.weyl_orbit(cf.datum, lam):
        assert cf.density(img) == pytest.approx(dens, abs=1e-10)


@pytest.mark.parametrize("name,expected", [("h3", 2), ("a2", 6), ("ch2", 2)])
def test_vanishing_order(cfuns, name, expected):
    assert cfuns[name].vanishing_order() == expected
