import numpy as np
import pytest

import sympwave as sw
from sympwave._quad import cheb_series_blocks
from sympwave.errors import DivergenceError, UnsupportedOrderError, UsageError


def test_exponential_second_derivative_at_zero():
    p = sw.Profile("exponential", 1.0)
    assert p.eval(2, 0.0) == pytest.approx(1.0)


def test_rational_value():
    p = sw.Profile("rational", 4.0)
    assert p.eval(0, 1.0) == pytest.approx(0.25)


def test_bump_plateau_and_tail():
    p = sw.Profile("bump", 2.0)
    assert p.eval(0, 1.0) == 1.0
    assert p.eval(0, 0.0) == 1.0
    assert p.eval(0, 5.0) == 0.0
    for k in range(1, 7):
        assert p.eval(k, 1.0) == 0.0
        assert p.eval(k, 4.5) == 0.0
    assert 0.0 < p.eval(0, 3.0) < 1.0


@pytest.mark.parametrize("family,param", [("exponential", 1.3), ("rational", 6.0), ("bump", 1.5)])
def test_derivative_finite_difference_consistency(family, param):
    p = sw.Profile(family, param)
    rs = np.linspace(0.1, 5.0, 23)
    h = 1e-5
    for k in range(5):
        fd = (p.eval(k, rs + h) - p.eval(k, rs - h)) / (2 * h)
        exact = p.eval(k + 1, rs)
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(fd - exact)) <= 1e-6 * scale, (family, k)


def test_order_cap():
    p = sw.Profile("exponential", 1.0)
    with pytest.raises(UnsupportedOrderError):
        p.eval(13, 1.0)
    with pytest.raises(UnsupportedOrderError):
        p.constant_C(13, 0.0)


def test_constant_exponential_exact():
    p = sw.Profile("exponential", 1.0)
    assert p.constant_C(0, 0.0) == pytest.approx(1.0, rel=1e-9)
    # antiderivative oracle: int e^{-r}(r+1) dr = 2
    assert p.constant_C(0, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_constant_rational_divergence():
    p = sw.Profile("rational", 2.0)
    with pytest.raises(DivergenceError, match="k=0"):
        p.constant_C(0, 2.0)


def test_constant_rational_finite_case():
    p = sw.Profile("rational", 6.0)
    # integrand (1+r^2)^{-3} (r+1): halves into arctan/rational pieces; check
    # against a dense trapezoid evaluation
    val = p.constant_C(0, 1.0)
    r = np.linspace(0, 400, 4_000_001)
    from scipy.integrate import trapezoid
    ref = trapezoid((1 + r**2) ** -3.0 * (r + 1), r)
    assert val == pytest.approx(ref, rel=1e-7)


def test_constant_bump_matches_plateau_piece():
    p = sw.Profile("bump", 2.0)
    val = p.constant_C(0, 0.0)
    # psi integrates to at least the plateau length and at most the support
    assert 2.0 < val < 4.0


def test_truncation_radius():
    p = sw.Profile("exponential", 2.0)
    r = p.truncation_radius(1e-14)
    assert p.eval(0, r) == pytest.approx(1e-14, rel=1e-6)
    assert sw.Profile("bump", 2.0).truncation_radius(1e-14) == 4.0


def test_parse_profile():
    p = sw.parse_profile("exp:1.5")
    assert p.family == "exponential" and p.param == 1.5
    assert sw.parse_profile("rational:6.0").family == "rational"
    assert sw.parse_profile("bump:2.0").param == 2.0
    with pytest.raises(UsageError):
        sw.parse_profile("weird:1")
    with pytest.raises(UsageError):
        sw.parse_profile("exp")


def test_invalid_parameters():
    with pytest.raises(UsageError):
        sw.Profile("exponential", 0.0)
    with pytest.raises(UsageError):
        sw.Profile("nope", 1.0)
    with pytest.raises(UsageError):
        sw.Profile("exponential", float("nan"))
    with pytest.raises(UsageError):
        sw.Profile("rational", float("inf"))


def test_smooth_cutoff_shape():
    c = sw.SmoothCutoff(1.0, 2.0)
    assert c.eval(0, 0.5) == 1.0
    assert c.eval(0, 2.5) == 0.0
    mid = c.eval(0, 1.5)
    assert 0.0 < mid < 1.0
    # derivative consistency in the transition
    xs = np.linspace(1.05, 1.95, 19)
    h = 1e-6
    for k in range(4):
        fd = (c.eval(k, xs + h) - c.eval(k, xs - h)) / (2 * h)
        exact = c.eval(k + 1, xs)
        assert np.max(np.abs(fd - exact)) <= 1e-5 * (np.max(np.abs(exact)) + 1.0)


# -- vectorized cutoff jets and the cutoff product ---------------------------

CUT_LO, CUT_HI, JET_ORDER = 1.5, 1.75, 6
# transition fractions crowding both ends, where exp(-1/s) underflows fastest
CUT_S = [0.005, 0.02, 0.3, 0.5, 0.7, 0.98, 0.995]
PROXY_COEF = np.array([0.7, -0.3 + 0.2j, 0.15, 0.05j, -0.02, 0.01])
PROXY_HI = 1.8


def _mp_cutoff(v):
    import mpmath as mp
    s = (v - CUT_LO) / (CUT_HI - CUT_LO)
    e1, e2 = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
    return e2 / (e1 + e2)


def _mp_proxy(x):
    import mpmath as mp
    t = (2 * x - PROXY_HI) / PROXY_HI
    return sum(mp.mpc(c) * mp.chebyt(k, t) for k, c in enumerate(PROXY_COEF))


def _mp_derivs(f, xs):
    """Rows 0..JET_ORDER of derivatives of f at xs, by mpmath at 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        return np.array([[complex(d) for d in mp.diffs(f, mp.mpf(x), JET_ORDER)]
                         for x in xs]).T


def _scaled_error(got, ref):
    """Error per order, relative to that order's largest reference value.

    Near the ends of the transition the derivatives are tiny differences of
    O(1) jets, so only the error against the order's scale is meaningful.
    """
    return np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)


def _cutoff_product(p):
    from numpy.polynomial.chebyshev import Chebyshev
    proxy = Chebyshev(PROXY_COEF, domain=[0.0, PROXY_HI])
    return sw.CutoffProduct(proxy, sw.SmoothCutoff(CUT_LO, CUT_HI), p, 0.0, PROXY_HI)


def test_cutoff_jet_array_matches_mpmath():
    from math import factorial
    c = sw.SmoothCutoff(CUT_LO, CUT_HI)
    vs = np.array([CUT_LO + s * (CUT_HI - CUT_LO) for s in CUT_S])
    fac = np.array([factorial(k) for k in range(JET_ORDER + 1)])[:, None]
    got = c.jet(vs, JET_ORDER) * fac
    assert got.shape == (JET_ORDER + 1, len(vs))
    assert np.all(_scaled_error(got, _mp_derivs(_mp_cutoff, vs)) <= 1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cutoff_product_derivatives_match_mpmath(p):
    prod = _cutoff_product(p)
    xs = np.array([CUT_LO + s * (CUT_HI - CUT_LO) for s in CUT_S]) ** (1.0 / p)
    got = np.array([prod.deriv(k, xs) for k in range(JET_ORDER + 1)])
    ref = _mp_derivs(lambda x: _mp_proxy(x) * _mp_cutoff(x**p), xs)
    assert np.all(_scaled_error(got, ref) <= 1e-12)


def test_cutoff_product_outside_transition_and_support():
    prod = _cutoff_product(2)
    xs = np.array([0.5, 1.0, 1.9, -0.1])   # flat part, flat part, beyond hi, below lo
    for k in range(JET_ORDER + 1):
        # on the flat part the k-th derivative is the proxy's, exactly as the
        # package's evaluator gives it in the same call for orders 0..k
        (_, vals), = cheb_series_blocks([prod.proxy_deriv(j) for j in range(k + 1)], xs[:2])
        flat = vals[:, k]
        assert np.array_equal(prod.deriv(k, xs), np.append(flat, [0.0, 0.0]))
        # and numpy's Clenshaw agrees to the rounding of the coefficients
        bound = 8 * np.finfo(float).eps * np.sum(np.abs(prod.proxy_deriv(k).coef))
        assert np.all(np.abs(flat - prod.proxy.deriv(k)(xs[:2])) <= bound)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cutoff_scalar_and_array_calls_agree(p):
    c = sw.SmoothCutoff(CUT_LO, CUT_HI)
    prod = _cutoff_product(p)
    vs = np.array([1.2, CUT_LO] + [CUT_LO + s * (CUT_HI - CUT_LO) for s in CUT_S]
                  + [CUT_HI, 1.9])
    xs = vs ** (1.0 / p)
    jets = c.jet(vs, JET_ORDER)
    for i, v in enumerate(vs):
        assert np.array_equal(c.jet(v, JET_ORDER), jets[:, i])
    for k in range(JET_ORDER + 1):
        evals, derivs = c.eval(k, vs), prod.deriv(k, xs)
        for i in range(len(vs)):
            assert c.eval(k, vs[i]) == evals[i]
            assert prod.deriv(k, xs[i])[0] == derivs[i]
            assert prod.deriv(k, xs[i : i + 1])[0] == derivs[i]
    values = prod.deriv(0, xs)
    assert np.array_equal(prod(xs), values)
    assert prod(xs[3]) == values[3]


@pytest.mark.parametrize("call, cls, start", [
    (lambda: sw.SmoothCutoff(1.0, 1.0), UsageError, "cutoff needs lo < hi"),
    (lambda: sw.SmoothCutoff(2.0, 1.0), UsageError, "cutoff needs lo < hi"),
    (lambda: sw.cutoff_product_derivs([_cutoff_product(2)], -1, np.array([0.5])), UsageError,
     "derivative order must be >= 0, got -1"),
], ids=["cutoff-equal-ends", "cutoff-reversed", "negative-order"])
def test_profiles_raise_sites(call, cls, start):
    with pytest.raises(cls) as info:
        call()
    assert info.type is cls and str(info.value).startswith(start)
