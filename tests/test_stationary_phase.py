import math
import weakref

import numpy as np
import pytest

import sympwave as sw
from sympwave.errors import OutOfRangeError, ResolutionError, UsageError


def make_cos_problem(g):
    return sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2,
                           f=lambda t: -np.cos(t), fprime=np.sin, fsecond=np.cos, g=g)


def test_invert_phase_examples(cos_problem):
    assert cos_problem.B == pytest.approx(1.0)
    assert sw.invert_phase(cos_problem, 0.0) == cos_problem.a
    assert sw.invert_phase(cos_problem, 1.0) == pytest.approx(np.pi / 2, abs=1e-12)
    lin = sw.PhaseProblem(a=0.5, b=1.5, p=1, f=lambda t: t,
                          fprime=lambda t: 1.0, fsecond=lambda t: 0.0, g=lambda t: 1.0)
    assert sw.invert_phase(lin, 0.3) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(OutOfRangeError):
        sw.invert_phase(cos_problem, 1.5)


def test_invert_phase_residual(cos_problem):
    for u in np.linspace(0.05, 0.99, 9):
        t = sw.invert_phase(cos_problem, u)
        assert abs(cos_problem.f(t) - cos_problem.fa - u**2) <= 1e-12


def linear_problem():
    return sw.PhaseProblem(a=0.5, b=1.5, p=1, f=lambda t: t,
                           fprime=lambda t: 1.0, fsecond=lambda t: 0.0, g=lambda t: 1.0)


@pytest.mark.parametrize("name", ["cos", "linear"])
def test_phase_inversion_on_arrays(name, cos_problem):
    from sympwave.stationary_phase import _invert_extended
    prob = cos_problem if name == "cos" else linear_problem()
    u_hi = math.sqrt(1.75) * prob.B * 1.02      # amplitude_data's proxy domain
    for invert, us in ((sw.invert_phase, np.linspace(0.0, prob.B, 10**4)),
                       (_invert_extended, np.linspace(0.0, u_hi, 10**4))):
        ts = invert(prob, us)
        assert ts.shape == us.shape
        assert np.max(np.abs(prob.f(ts) - prob.fa - us**prob.p)) <= 1e-14
        # each t depends only on its own u
        some = np.r_[0:us.size:40, us.size - 1]
        alone = np.array([np.ravel(invert(prob, float(u)))[0] for u in us[some]])
        assert np.array_equal(alone, ts[some])
        assert np.array_equal(invert(prob, us[::-7]), ts[::-7])
    assert isinstance(sw.invert_phase(prob, 0.5 * prob.B), float)


def test_integer_endpoints_give_the_bits_of_float_endpoints():
    def cos_problem(a):
        return sw.PhaseProblem(a=a, b=np.pi / 2, p=2, f=lambda t: -np.cos(t),
                               fprime=np.sin, fsecond=np.cos, g=np.sin)
    whole, real = cos_problem(0), cos_problem(0.0)
    us = np.linspace(0.0, 1.0, 11)
    assert sw.invert_phase(whole, us).tobytes() == sw.invert_phase(real, us).tobytes()
    assert sw.invert_phase(whole, 0.7) == sw.invert_phase(real, 0.7) != 1.0
    assert sw.expand(whole, 50.0, 2, 1).total == sw.expand(real, 50.0, 2, 1).total
    assert sw.oracle(whole, 50.0) == sw.oracle(real, 50.0)


def test_phase_callables_must_take_arrays():
    with pytest.raises(UsageError, match="numpy array"):
        sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2, f=lambda t: -math.cos(t),
                        fprime=np.sin, fsecond=np.cos, g=lambda t: 1.0)


def test_monotonicity_checked():
    with pytest.raises(UsageError):
        sw.PhaseProblem(a=0.0, b=3.0, p=1, f=np.sin,
                        fprime=np.cos, fsecond=lambda t: -np.sin(t), g=lambda t: 1.0)


def test_k1_zero_closed_form():
    val = sw.k_n(1, 0.0, 4.0, 2)
    ref = -(math.sqrt(math.pi) / 4.0) * np.exp(1j * np.pi / 4.0)
    assert abs(val - ref) <= 1e-10


def test_k_n_zero_matches_ray_integral():
    for (n, x, p) in [(1, 4.0, 2), (2, 7.0, 2), (3, 2.5, 3), (2, 5.0, 1), (4, 1.5, 4)]:
        assert abs(sw.k_n(n, 0.0, x, p) - sw.k_n_zero(n, x, p)) <= 1e-12 * sw.k_n_bound(n, x, p)


def test_k_n_bound_grid():
    # 1000-point grid over (n, p, u, x)
    violations = 0
    for n in (1, 2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            us = np.linspace(0.0, 2.0, 5)
            for x in np.geomspace(0.5, 200.0, 10):
                vals = sw.k_n(n, us, x, p)
                bound = sw.k_n_bound(n, x, p)
                violations += int(np.any(np.abs(vals) > bound * (1 + 1e-10)))
    assert violations == 0


KN_XS = (0.5, 5.0, 20.0, 200.0, 2000.0, 7718.68, 1e4)


def kn_points(x):
    """u on [0, 1.35], plus |z0| = sqrt(x) u = 2 +- 0.1 %, where the p = 2
    recurrence switches from forward to backward."""
    return np.concatenate([np.linspace(0.0, 1.35, 19),
                           2.0 * np.array([0.999, 1.0, 1.001]) / math.sqrt(x)])


def k_n_mpmath(n, u, x, p):
    """k_n at 100 digits: e^{ixu} for p = 1; for p = 2, erfc and the forward
    recurrence of e^{z^2} i^k erfc(z), which is stable at this precision."""
    import mpmath as mp
    with mp.workdps(100):
        x, u = mp.mpf(x), mp.mpf(u)
        if p == 1:
            return complex((-mp.j / x) ** n * mp.expj(x * u))
        z = mp.sqrt(x / 2) * u * mp.mpc(1, -1)
        e = [2 / mp.sqrt(mp.pi), mp.exp(z * z) * mp.erfc(z)]
        for k in range(1, n):
            e.append((e[-2] - 2 * z * e[-1]) / (2 * k))
        return complex((-mp.expj(mp.pi / 4) / mp.sqrt(x)) ** n * mp.sqrt(mp.pi) / 2
                       * mp.expj(x * u * u) * e[n])


@pytest.mark.parametrize("p", [1, 2])
def test_k_n_closed_form_matches_mpmath(p):
    for x in KN_XS:
        us = kn_points(x)
        for n in range(1, 6):
            ref = np.array([k_n_mpmath(n, u, x, p) for u in us])
            err = np.max(np.abs(sw.k_n(n, us, x, p) - ref))
            assert err <= 1e-13 * sw.k_n_bound(n, x, p), (n, x, err)


@pytest.mark.parametrize("p", [1, 2])
def test_k_n_closed_form_matches_ray_quadrature(p):
    from sympwave.stationary_phase import _k_n_ray
    for x in KN_XS:
        us = kn_points(x)
        for n in range(1, 6):
            err = np.max(np.abs(sw.k_n(n, us, x, p) - _k_n_ray(n, us, x, p)))
            assert err <= 1e-12 * sw.k_n_bound(n, x, p), (n, x, err)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_k_n_value_independent_of_node_set(p):
    rng = np.random.default_rng(7)
    for x in (0.5, 20.0, 2000.0, 1e4):
        us = np.concatenate([rng.uniform(0.0, 1.35, 120), kn_points(x)])
        for n in (1, 2, 3, 5):
            whole = sw.k_n(n, us, x, p)
            alone = np.array([sw.k_n(n, float(u), x, p) for u in us])
            assert np.array_equal(whole, alone), (n, x)
            assert np.array_equal(sw.k_n(n, us[::7], x, p), whole[::7]), (n, x)


def test_k_n_miller_points_equal_their_single_point_calls():
    # |z0| = sqrt(x) u in [2, 3] has the longest Miller starts, up to 300 steps
    # at n = 14, beside points out to |z0| = 1e4 that stop after n + 7 steps and
    # forward points below 2: the backward loop runs in place on a shrinking
    # prefix, and each entry must still be the one it has alone
    x = 400.0
    rng = np.random.default_rng(23)
    z0 = np.concatenate([rng.uniform(2.0, 3.0, 24), np.geomspace(3.0, 1e4, 24),
                         rng.uniform(0.0, 2.0, 6)])
    rng.shuffle(z0)
    us = z0 / math.sqrt(x)
    for n in range(1, 15):
        whole = sw.k_n(n, us, x, 2)
        alone = np.array([sw.k_n(n, float(u), x, 2) for u in us])
        assert whole.tobytes() == alone.tobytes(), n


def test_expand_and_xi_decompose_never_enter_ray_quadrature(monkeypatch, cos_problem):
    from sympwave import stationary_phase as sp
    real_ray, calls = sp._k_n_ray, []

    def counted(*args):
        calls.append(args[0])
        return real_ray(*args)

    monkeypatch.setattr(sp, "_k_n_ray", counted)
    sw.expand(cos_problem, 300.0, 2, 1)
    sw.xi_decompose(sw.gaussian_symbol(3), np.array([1.0, 0.0, 0.0]), 1.0, 40.0)
    assert calls == []
    sw.k_n(2, 0.5, 10.0, 3)          # the counter sees p = 3
    assert calls == [2]


@pytest.mark.parametrize("call", [
    lambda: sw.k_n(1, 0.5, float("nan"), 2),
    lambda: sw.k_n(1, 0.5, float("inf"), 2),
    lambda: sw.k_n(1, 0.5, 0.0, 2),
    lambda: sw.k_n(1, 0.5, 4.0, 0),
    lambda: sw.k_n(1, 0.5, 4.0, 5),
    lambda: sw.k_n(1, 0.5, 4.0, 2.0),
    lambda: sw.k_n(0, 0.5, 4.0, 2),
    lambda: sw.k_n(1.5, 0.5, 4.0, 2),
    lambda: sw.k_n(1, np.array([0.5, np.nan]), 4.0, 2),
    lambda: sw.k_n(1, np.inf, 4.0, 1),
    lambda: sw.k_n_zero(1, -1.0, 2),
    lambda: sw.k_n_zero(0, 4.0, 2),
    lambda: sw.k_n_zero(1, 4.0, 5),
    lambda: sw.k_n_bound(0, 4.0, 2),
    lambda: sw.k_n_bound(1, float("nan"), 2),
    lambda: sw.k_n_bound(1, 4.0, 0),
], ids=["k_n-x-nan", "k_n-x-inf", "k_n-x-zero", "k_n-p-0", "k_n-p-5", "k_n-p-float",
        "k_n-n-0", "k_n-n-float", "k_n-u-nan", "k_n-u-inf", "k_n_zero-x-negative",
        "k_n_zero-n-0", "k_n_zero-p-5", "k_n_bound-n-0", "k_n_bound-x-nan", "k_n_bound-p-0"])
def test_contour_function_input_contract(call):
    with pytest.raises(UsageError):
        call()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", ["expand-x", "oracle-x", "xi_direct-r", "xi_direct-h"])
def test_non_finite_inputs_are_usage_errors(cos_problem, call, value):
    # numpy would raise ValueError or OverflowError from the panel breaks,
    # or return nan+nanj with no warning
    e1 = np.array([1.0, 0.0])
    calls = {
        "expand-x": lambda: sw.expand(cos_problem, value, 1, 1),
        "oracle-x": lambda: sw.oracle(cos_problem, value),
        "xi_direct-r": lambda: sw.xi_direct(sw.gaussian_symbol(2), e1, value, 1.0),
        "xi_direct-h": lambda: sw.xi_direct(sw.gaussian_symbol(2), e1, 1.0, value),
    }
    with pytest.raises(UsageError, match="finite"):
        calls[call]()


def test_k_n_derivative_identity():
    h = 1e-4
    fd = (sw.k_n(2, 0.3 + h, 5.0, 2) - sw.k_n(2, 0.3 - h, 5.0, 2)) / (2 * h)
    assert abs(fd - sw.k_n(1, 0.3, 5.0, 2)) <= 1e-6


def test_oracle_linear_phase_closed_form():
    lin = sw.PhaseProblem(a=0.0, b=1.0, p=1, f=lambda t: t,
                          fprime=lambda t: 1.0, fsecond=lambda t: 0.0, g=lambda t: 1.0)
    for x in (3.0, 10.0, 57.0):
        ref = (np.exp(1j * x) - 1.0) / (1j * x)
        assert abs(sw.oracle(lin, x) - ref) <= 1e-10 * abs(ref)


def cos_demo_closed(gname, x):
    """int_0^(pi/2) g(t) exp(-i x cos t) dt: pi/2 (J0(x) - i H0(x)) for g = 1,
    with H0 Struve's function, and (1 - e^{-ix})/(ix) for g = sin."""
    import mpmath as mp
    with mp.workdps(30):
        if gname == "one":
            return complex(mp.pi / 2 * (mp.besselj(0, x) - 1j * mp.struveh(0, x)))
        return complex((1 - mp.expj(-x)) / (1j * mp.mpf(x)))


@pytest.mark.parametrize("gname,g", [("one", lambda t: 1.0), ("sin", np.sin)])
@pytest.mark.parametrize("x", [20.0, 1e3, 4598.63, 1e4])
def test_oracle_matches_closed_forms(gname, g, x):
    ref = cos_demo_closed(gname, x)
    assert abs(sw.oracle(make_cos_problem(g), x) - ref) <= 1e-10 * abs(ref)


def test_oracle_evaluates_g_and_f_once_per_level():
    sizes = {"f": [], "g": []}

    def counted(name, fn):
        def wrapped(ts):
            sizes[name].append(np.size(ts))
            return fn(ts)
        return wrapped

    prob = sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2, f=counted("f", lambda t: -np.cos(t)),
                           fprime=np.sin, fsecond=np.cos, g=counted("g", np.sin))
    sizes["f"].clear()        # the construction's own grid calls
    sizes["g"].clear()
    sw.oracle(prob, 300.0)
    # 96 half-period panels; the order doubles from 16 up to at most 128, and
    # orders 16 and 32 are one call: each node is evaluated once per order
    assert 1 <= len(sizes["g"]) <= 3
    assert sizes["g"] == [96 * (16 + 32), 96 * 64, 96 * 128][:len(sizes["g"])]
    assert [n for n in sizes["f"] if n > 97] == sizes["g"]
    # the 96 breaks past t = a come from one bisection of about 50 array calls
    assert len(sizes["f"]) - len(sizes["g"]) <= 64


def test_oracle_constant_amplitude_may_return_a_scalar():
    scalar = make_cos_problem(lambda t: 2.5)
    array = make_cos_problem(lambda t: np.full(np.shape(t), 2.5))
    for x in (20.0, 1e3):
        assert sw.oracle(scalar, x) == sw.oracle(array, x)
        assert abs(sw.oracle(scalar, x) - 2.5 * cos_demo_closed("one", x)) \
            <= 1e-10 * 2.5 * abs(cos_demo_closed("one", x))


def test_oracle_zero_amplitude(cos_problem):
    zero = make_cos_problem(lambda t: 0.0)
    assert sw.oracle(zero, 10.0) == 0.0


def test_oracle_self_convergence(cos_problem):
    # stability under independent re-evaluation at higher base order
    from sympwave._quad import integrate_panels
    x = 10.0
    ref = sw.oracle(cos_problem, x)
    breaks = np.array([sw.invert_phase(cos_problem, min(1.0, math.sqrt(k * np.pi / x)))
                       for k in range(int(x / np.pi) + 2)] + [cos_problem.b])
    breaks = np.unique(np.clip(breaks, 0.0, np.pi / 2))
    fine = integrate_panels(lambda ts: np.exp(1j * x * -np.cos(ts)), breaks, order0=64,
                            tol=1e-13)
    assert abs(ref - fine) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("gname,g", [("one", lambda t: 1.0),
                                     ("sin", np.sin),
                                     ("poly", lambda t: 1.0 + t * t)])
@pytest.mark.parametrize("x", [20.0, 50.0, 100.0, 1000.0])
def test_expansion_is_identity(gname, g, x):
    prob = make_cos_problem(g)
    res = sw.expand(prob, x, 2, 1)
    ref = sw.oracle(prob, x)
    assert abs(res.total - ref) <= 1e-6 * abs(ref) + 1e-9


def test_expansion_one_term_at_large_x():
    # R1's panels follow the phase of k_n: with ten flat panels alone, each
    # held ~100 periods here and the N = 1 total was off by 2.7e-6
    prob = make_cos_problem(lambda t: 1.0 + t * t)
    x = 4598.6
    res = sw.expand(prob, x, 1, 1)
    ref = sw.oracle(prob, x)
    assert abs(res.total - ref) <= 1e-9 * abs(ref)


@pytest.mark.filterwarnings("error::sympwave._quad.AccuracyWarning")
@pytest.mark.parametrize("gname,g,x,N", [("sin", np.sin, 4598.63, 2),
                                         ("poly", lambda t: 1.0 + t * t, 7718.68, 2),
                                         ("one", lambda t: 1.0, 2357.19, 2),
                                         ("sin", np.sin, 3e4, 1)])
def test_r1_reaches_its_floor_before_the_order_cap(gname, g, x, N):
    # two R1 levels cannot agree past the rounding of k_n's phase, eps p x u_hi^p
    # of the mass, which is above 1e-14 at each of these x
    prob = make_cos_problem(g)
    res = sw.expand(prob, x, N, 1)
    ref = sw.oracle(prob, x)
    assert abs(res.total - ref) <= 1e-9 * abs(ref)
    if gname == "sin":
        closed = (1.0 - np.exp(-1j * x)) / (1j * x)
        assert abs(res.total - closed) <= 1e-9 * abs(closed)


def test_r1_phase_past_the_panel_cap_raises_before_it_integrates(monkeypatch, cos_problem):
    # x u_hi^p = 1.75e7 needs 696,000 panels of 8 pi, past the 200,000 that
    # halfperiod_breaks gives, and their nodes would take gigabytes
    from sympwave import stationary_phase

    def refuse(*args, **kwargs):
        raise AssertionError("R1 panels built past the panel cap")
    monkeypatch.setattr(stationary_phase, "halfperiod_breaks", refuse)
    monkeypatch.setattr(stationary_phase, "integrate_panels", refuse)
    with pytest.raises(ResolutionError, match=r"R1 integral: .* largest x here is 2\.87231e\+06$"):
        sw.expand(cos_problem, 1e7, 1, 1)


def test_expansion_identity_p1():
    lin = sw.PhaseProblem(a=0.0, b=1.0, p=1, f=lambda t: t,
                          fprime=lambda t: 1.0, fsecond=lambda t: 0.0,
                          g=lambda t: np.exp(-t) * (2.0 + np.sin(3 * t)))
    res = sw.expand(lin, 40.0, 2, 2)
    ref = sw.oracle(lin, 40.0)
    assert abs(res.total - ref) <= 1e-8 * abs(ref)


def test_leading_main_term(cos_problem):
    res = sw.expand(cos_problem, 100.0, 1, 1)
    lead = res.phase_prefactor * res.main_terms[0]
    ref = np.exp(-100.0j + 1j * np.pi / 4.0) * math.sqrt(np.pi / 200.0)
    assert abs(lead - ref) <= 1e-8


def test_error_halving_rate(cos_problem):
    # with N = 1 the remaining terms scale like 1/x
    amp = sw.amplitude_data(cos_problem)
    errs = {}
    for x in (50.0, 100.0, 200.0, 400.0):
        res = sw.expand(cos_problem, x, 1, 1, amplitude=amp)
        total_main = res.phase_prefactor * sum(res.main_terms)
        errs[x] = abs(total_main - sw.oracle(cos_problem, x))
    for x in (50.0, 100.0, 200.0):
        assert errs[x] / errs[2 * x] >= 2 ** ((1 + 1) / 2) * 0.8


def test_zero_amplitude_expansion():
    zero = make_cos_problem(lambda t: 0.0)
    res = sw.expand(zero, 30.0, 2, 2)
    assert res.total == 0.0
    assert all(v == 0.0 for v in res.main_terms)
    assert res.R1 == 0.0 and res.R2 == 0.0


def test_expand_without_amplitude_keeps_the_live_r2_panels(cos_problem):
    # R2's panels are kept by the amplitude that leads the set: each expand
    # without amplitude= fits and builds its own, which go with it and push
    # no other amplitude's panels out
    amp = sw.amplitude_data(cos_problem)
    first = sw.expand(cos_problem, 20.0, 2, 1, amplitude=amp)
    for x in np.linspace(20.0, 60.0, 17):
        sw.expand(cos_problem, float(x), 2, 1)
    again = sw.expand(cos_problem, 20.0, 2, 1, amplitude=amp)
    info = amp._r2_panels.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert again.R2 == first.R2
    fresh = sw.amplitude_data(cos_problem)
    sw.expand(cos_problem, 30.0, 2, 1, amplitude=fresh)
    gone = weakref.ref(fresh)
    del fresh
    assert gone() is None


def test_total_assembled_from_fields(cos_problem):
    res = sw.expand(cos_problem, 35.0, 2, 2)
    rebuilt = res.phase_prefactor * ((sum(res.main_terms) + res.R1)
                                     - (sum(res.i2_terms) + res.R2))
    assert res.total == rebuilt


def test_q_zero_value(cos_problem):
    amp = sw.amplitude_data(cos_problem)
    ref = 1.0 * math.sqrt(2.0 / 1.0)  # g(a) sqrt(2/f''(a))
    assert abs(amp.q.proxy_deriv(0)(0.0) - ref) <= 1e-8
    assert abs(amp.q(0.0) - ref) <= 1e-8


def test_q_vanishes_beyond_cutoff(cos_problem):
    amp = sw.amplitude_data(cos_problem)
    assert amp.q(1.5) == 0.0
    assert amp.q(np.sqrt(1.74)) != 0.0
    assert amp.q1(3.0) == 0.0


def test_N_too_large_raises(cos_problem):
    # past 9 terms the proxies' high derivatives are noise, so N and M are refused
    with pytest.raises(UsageError, match="N, M <= 9, got N = 40"):
        sw.expand(cos_problem, 20.0, 40, 1)
    with pytest.raises(UsageError, match="got N = 2 and M = 10"):
        sw.expand(cos_problem, 20.0, 2, 10)


def test_x_positive_required(cos_problem):
    with pytest.raises(UsageError):
        sw.expand(cos_problem, -3.0, 1, 1)
    with pytest.raises(UsageError):
        sw.oracle(cos_problem, 0.0)


def test_x_too_small_for_the_terms_raises_naming_the_smallest_x(cos_problem):
    # x^-((N+1)/p) and x^-M must fit in a double; the named x fits
    for x, N, M, smallest in [(1e-80, 9, 1, 2.23389e-62), (1e-40, 2, 9, 5.61669e-35),
                              (5e-324, 1, 1, 5.56274e-309)]:
        with pytest.raises(OutOfRangeError, match=rf"^x = {x:g} is too small for N = {N}, "
                           rf"M = {M} and p = 2: .* smallest x that fits is {smallest}$"):
            sw.expand(cos_problem, x, N, M)
        try:
            with np.errstate(all="ignore"):
                sw.expand(cos_problem, smallest, N, M)
        except OutOfRangeError as exc:
            assert "too small" not in str(exc)
    # N = 3 and M = 2 fit at x = 1e-80: a finite row, however far from the integral
    assert np.isfinite(sw.expand(cos_problem, 1e-80, 3, 2).total)
    # past the powers' own limit, the terms still overflow: no silent NaN total
    with pytest.raises(OutOfRangeError, match=r"^the expansion at x = 1e-58 with N = 9 and M = 1 "
                                              r"overflows: its total is \(nan\+nanj\)$"):
        with np.errstate(all="ignore"):
            sw.expand(cos_problem, 1e-58, 9, 1)


# -- R1's first integrand call takes orders 16, 32 and 64 --------------------------

def _r1_two_order_start(amps, n, x):
    """R1 as :func:`remainder_integrals` had it with a first call of orders 16
    and 32 alone: the same breaks, tolerance and floor."""
    from sympwave._quad import halfperiod_breaks, integrate_panels
    from sympwave.profiles import cutoff_product_derivs
    p, cutoff = amps[0].p, amps[0].q.cutoff
    lo, hi = cutoff.lo ** (1.0 / p), cutoff.hi ** (1.0 / p)
    phase = x * hi**p
    breaks = np.union1d(np.concatenate([np.linspace(0.0, lo, 11), np.linspace(lo, hi, 9)[1:]]),
                        hi * halfperiod_breaks(phase / 8.0, 0.0, 1.0) ** (1.0 / p))
    qs = [a.q for a in amps]
    return integrate_panels(lambda us: cutoff_product_derivs(qs, n, us) * sw.k_n(n, us, x, p),
                            breaks, order0=16, tol=1e-12,
                            floor_rel=max(1e-14, np.finfo(float).eps * p * phase))


def _r1_cases(family):
    """(amplitudes, n, x) of the R1 integrals of one family: the cos demo's
    amplitudes for N = 1, 2 and 4, and the a2 xi poles at r = 0.5, 1 and 4."""
    if family in ("one", "sin", "poly"):
        g = {"one": lambda t: 1.0, "sin": np.sin, "poly": lambda t: 1.0 + t * t}[family]
        amps = (sw.amplitude_data(make_cos_problem(g)),)
        return [(amps, N + 1, x) for x in (0.1, 20.0, 50.0, 1e3, 4598.63, 7718.68)
                for N in (1, 2, 4)]
    sym = (sw.plancherel_symbol(sw.CFunction(sw.preset("a2"))) if family == "a2"
           else sw.gaussian_symbol(2))
    return [(sw.QFamily(sym, [1.0, 0.0], r).amps, 2, h * r)
            for r in (0.5, 1.0, 4.0) for h in (5.0, 40.0)]


@pytest.mark.parametrize("family", ["one", "sin", "poly", "a2", "gauss"])
def test_r1_keeps_the_bits_of_a_two_order_first_call(family):
    # a first call of three orders compares the same sums at every order, with
    # order 16's mass as the floor, so every R1 keeps its bits; starting at
    # order 32 instead would move "sin" at x = 7718.68, where order 32 stops
    from sympwave.stationary_phase import remainder_integrals
    for amps, n, x in _r1_cases(family):
        r1, _ = remainder_integrals(amps, n, 1, x)
        assert r1.tobytes() == _r1_two_order_start(amps, n, x).tobytes(), (n, x)


@pytest.mark.parametrize("x,panels", [(20.0, 19), (1000.0, 85), (1840.0, 146), (1860.0, 147)])
def test_r1_takes_one_integrand_call_up_to_146_panels(monkeypatch, cos_problem, x, panels):
    # orders 16, 32 and 64 have 112 nodes a panel, at most 2^14 in all up to
    # 146 panels; past that the first call takes orders 16 and 32, then 64
    from sympwave import stationary_phase as sp
    real_k_n, sizes = sp.k_n, []

    def counted(n, u, x, p):
        sizes.append(np.size(u))
        return real_k_n(n, u, x, p)

    amp = sw.amplitude_data(cos_problem)
    monkeypatch.setattr(sp, "k_n", counted)
    sw.expand(cos_problem, x, 2, 1, amplitude=amp)
    assert sizes == ([112 * panels] if panels <= 146 else [48 * panels, 64 * panels])


def _problem(a=0.0, b=1.0, p=1, f=lambda t: t, fprime=lambda t: np.ones_like(t)):
    return sw.PhaseProblem(a=a, b=b, p=p, f=f, fprime=fprime,
                           fsecond=lambda t: np.zeros_like(t), g=lambda t: np.ones_like(t))


def _finite_up_to_one(t):
    return np.where(np.asarray(t) <= 1.0, t, np.inf)


@pytest.mark.parametrize("call, cls, start", [
    (lambda: _problem(a=1.0, b=0.0), UsageError, "need a < b"),
    (lambda: _problem(p=5), UsageError, "phase degeneracy p must be in 1..4"),
    (lambda: _problem(f=lambda t: t**4), UsageError,
     "phase vanishes to higher order than p at the endpoint"),
    # sin t turns down past b = pi/2, before the amplitude's extension is covered
    (lambda: sw.amplitude_data(_problem(b=np.pi / 2, f=np.sin, fprime=np.cos)),
     OutOfRangeError, "phase stops increasing before the amplitude extension is covered"),
    (lambda: sw.amplitude_data(_problem(f=_finite_up_to_one)), OutOfRangeError,
     "phase is not finite where it is inverted"),
], ids=["ends", "p", "higher-order", "stops-increasing", "non-finite"])
def test_stationary_phase_raise_sites(call, cls, start):
    with pytest.raises(cls) as info:
        call()
    assert info.type is cls and str(info.value).startswith(start)
