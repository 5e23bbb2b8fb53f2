import math

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
    with pytest.raises(ResolutionError):
        sw.expand(cos_problem, 20.0, 40, 1, degree=16)


def test_x_positive_required(cos_problem):
    with pytest.raises(UsageError):
        sw.expand(cos_problem, -3.0, 1, 1)
    with pytest.raises(UsageError):
        sw.oracle(cos_problem, 0.0)
