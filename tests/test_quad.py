import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import sympwave as sw
from sympwave._quad import (_CHEB_BLOCK, _TABLE_BLOCK, AccuracyWarning, ChebTable, FilonPanels,
                            cheb_fit, cheb_series_blocks, integrate_panels)
from sympwave.errors import ResolutionError


def test_row_batched_filon_matches_one_panel_set_per_row():
    widths = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
    freqs = np.array([-40.0, 0.0, 0.7, 13.0, 250.0])

    def rows(s):
        return np.exp(-widths[:, None] * s[None, :] ** 2) * (1.0 + 1j * s[None, :])

    batched = FilonPanels(rows, 0.0, 3.0, n_panels=24)
    assert batched.coeffs.shape[:2] == (len(widths), 24)
    together = batched.integrate(freqs)
    for j, (c, om) in enumerate(zip(widths, freqs)):
        single = FilonPanels(lambda s, c=c: np.exp(-c * s**2) * (1.0 + 1j * s), 0.0, 3.0,
                             n_panels=24)
        alone = single.integrate(om)
        assert len(single.mid) == 24
        assert np.array_equal(single.coeffs, batched.coeffs[j])
        assert together[j].tobytes() == np.complex128(alone).tobytes(), j


def test_filon_rows_are_judged_against_their_own_coefficients():
    # a small, steep row beside a large, smooth one: against the largest
    # coefficient of all rows the steep row would pass at the starting count
    def steep(s):
        return np.exp(-20.0 * s**2) + 0j

    def rows(s):
        return np.stack([1e12 * np.exp(-(s**2)) + 0j, steep(s)])

    batched = FilonPanels(rows, 0.0, 3.0, n_panels=4)
    alone = FilonPanels(steep, 0.0, 3.0, n_panels=4)
    assert len(alone.mid) > 4 and len(batched.mid) == len(alone.mid)
    together = batched.integrate(np.array([0.0, 7.0]))
    assert together[1].tobytes() == np.complex128(alone.integrate(7.0)).tobytes()


def _filon_breaks(fil):
    return np.union1d(fil.mid - fil.half, fil.mid + fil.half)


def test_filon_splits_only_the_panels_that_fail():
    # a narrow Gaussian at s = 1: the panels near it are halved, the rest are
    # fitted once, and each round samples only the new halves
    sizes = []

    def bump(s):
        sizes.append(s.size)
        return np.exp(-400.0 * (s - 1.0) ** 2) + 0j

    fil = FilonPanels(bump, 0.0, 3.0, n_panels=8)
    split = fil.half < 0.1                         # starting panels have half-width 3/16
    assert 8 < len(fil.mid) < 32 and np.all(np.abs(fil.mid[split] - 1.0) < 0.5)
    assert np.sum(~split) >= 5                     # far panels keep their width
    children = 2 * (len(fil.mid) - 8)              # each split adds one panel, fits two
    assert sum(sizes) == 24 * (8 + children) and len(sizes) > 2
    # int_0^3 e^(-a (s-1)^2 + i w s) ds as a difference of complex error functions
    import mpmath as mp
    a, w = mp.mpf(400), mp.mpf(7)
    with mp.workdps(30):
        u = [mp.sqrt(a) * (s - 1) - 1j * w / (2 * mp.sqrt(a)) for s in (0, 3)]
        ref = complex(mp.exp(1j * w - w**2 / (4 * a)) * mp.sqrt(mp.pi) / (2 * mp.sqrt(a))
                      * (mp.erf(u[1]) - mp.erf(u[0])))
    assert abs(fil.integrate(7.0) - ref) <= 1e-13 * abs(ref)


def test_filon_unresolved_amplitude_warns_once():
    with pytest.warns(AccuracyWarning) as caught:
        fil = FilonPanels(lambda s: np.sqrt(np.abs(s - 1.0)) + 0j, 0.0, 3.0, n_panels=8,
                          warn_label="kink")
    assert len(caught) == 1
    assert str(caught[0].message).startswith("kink: ") and "not resolved" in str(caught[0].message)
    assert len(fil.mid) < 32


def test_filon_batch_refines_the_union_of_its_rows():
    # a row's panels in a batch refine the ones it has alone; a row whose
    # panels are the same has the same value, bit for bit
    rows = [lambda s: np.exp(-400.0 * (s - 1.0) ** 2) + 0j,
            lambda s: np.exp(-((s - 1.0) ** 2)) * (1.0 + 1j * s),
            lambda s: np.exp(-400.0 * (s - 2.0) ** 2) + 0j]
    alone = [FilonPanels(f, 0.0, 3.0, n_panels=8) for f in rows]
    equal = 0
    for members in ([0, 1, 2], [0, 1], [1, 2]):
        batch = FilonPanels(lambda s: np.stack([rows[j](s) for j in members]), 0.0, 3.0,
                            n_panels=8)
        freqs = np.full(len(members), 7.0)
        together = batch.integrate(freqs)
        for i, j in enumerate(members):
            own, mine = _filon_breaks(alone[j]), _filon_breaks(batch)
            assert np.all(np.min(np.abs(mine[:, None] - own[None, :]), axis=0) <= 1e-12), j
            if np.array_equal(batch.mid, alone[j].mid) and np.array_equal(batch.half,
                                                                          alone[j].half):
                equal += 1
                assert together[i].tobytes() == np.complex128(
                    alone[j].integrate(7.0)).tobytes(), (members, j)
    assert equal == 2 and len(alone[1].mid) == 8


def test_per_row_warnings_name_their_rows():
    # 1/sqrt(x) never settles; the row that hits the order cap warns under its own label
    grids = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3)]

    def rows(nodes):
        x = nodes["x"]
        return np.where(nodes["row"] == 0, np.exp(x), 1.0 / np.sqrt(x))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        integrate_panels(rows, grids, order0=4, max_order=16, warn_label=["smooth", "singular"])
    assert [str(w.message).split(":")[0] for w in caught] == ["singular"]


def test_row_batched_integrate_panels_matches_one_row_at_a_time():
    rates = np.array([0.3, 1.0, 2.5, 4.0])
    breaks = np.linspace(0.0, 2.0, 5)

    def counting(f, sizes):
        def g(s):
            sizes.append(s.size)
            return f(s)
        return g

    def rows(s):
        return np.exp(-rates[:, None] * s[None, :]) * (1.0 + 1j * np.sin(s[None, :]))

    batched_sizes = []
    together = integrate_panels(counting(rows, batched_sizes), breaks, tol=1e-12)
    assert together.shape == rates.shape
    for j, c in enumerate(rates):
        sizes = []
        alone = integrate_panels(
            counting(lambda s, c=c: np.exp(-c * s) * (1.0 + 1j * np.sin(s)), sizes),
            breaks, tol=1e-12)
        assert sizes == batched_sizes, j      # converged at the same order
        assert together[j].tobytes() == np.complex128(alone).tobytes(), j


def test_per_row_breaks_stop_each_row_on_its_own():
    # rows with their own breaks: each row's value and stopping order are the
    # ones it has alone, and a row that has stopped is not evaluated again
    rates = np.array([0.3, 4.0, 40.0])
    grids = [np.linspace(0.0, 2.0, 3), np.linspace(0.0, 1.0, 5), np.array([0.0, 0.3, 2.5])]

    def one(c, s):
        return np.exp(-c * s) * (1.0 + 1j * np.sin(3.0 * s))

    seen = []

    def rows_f(nodes):
        seen.append(np.bincount(nodes["row"], minlength=len(rates)))
        return one(rates[nodes["row"]], nodes["x"])

    together = integrate_panels(rows_f, grids, order0=4, tol=1e-12)
    assert together.shape == rates.shape
    for j, (c, breaks) in enumerate(zip(rates, grids)):
        sizes = []

        def alone_f(s, c=c):
            sizes.append(s.size)
            return one(c, s)
        alone = integrate_panels(alone_f, breaks, order0=4, tol=1e-12)
        assert together[j].tobytes() == np.complex128(alone).tobytes(), j
        assert [n[j] for n in seen if n[j]] == sizes, j
    # the rows stopped at different orders
    assert len({sum(1 for n in seen if n[j]) for j in range(len(rates))}) > 1


def test_table_reads_a_large_batch_as_single_points():
    def f(v):
        return np.exp(1j * v) / (1.0 + 0.1 * v * v)
    table = ChebTable(f, 1.0)
    v = np.linspace(-20.0, 20.0, 2 * _TABLE_BLOCK + 123)
    batch = table(v)
    assert np.max(np.abs(batch - f(v))) <= 1e-12
    single = np.array([table(x) for x in v])
    assert batch.tobytes() == single.tobytes()


# -- many Chebyshev series at one node set ---------------------------------------

EPS = np.finfo(float).eps


def cheb_series_values(series, x):
    """Every series at every node, shape (len(series), len(x)), from the blocks."""
    return np.concatenate([vals for _, vals in cheb_series_blocks(series, x)]).T


@pytest.fixture(scope="module")
def proxies():
    """q and q''' of criterion 3's three amplitudes, and both poles' proxies of
    the a2 Plancherel QFamily at four radii, whose q proxies reach four degrees."""
    out = {}
    for label, g in (("1", lambda t: 1.0), ("sin", np.sin), ("1+t^2", lambda t: 1.0 + t * t)):
        prob = sw.PhaseProblem(a=0.0, b=np.pi / 2.0, p=2, f=lambda t: -np.cos(t),
                               fprime=np.sin, fsecond=np.cos, g=g)
        q = sw.amplitude_data(prob).q
        out[f"q {label}"], out[f"q''' {label}"] = q.proxy_deriv(0), q.proxy_deriv(3)
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    for r in (1.0, 4.0, 6.0, 10.0):
        fam = sw.QFamily(sym, np.array([1.0, 0.0]), r)
        for i, a in enumerate(fam.amps):
            out[f"a2 r={r} pole {i} q"], out[f"a2 r={r} pole {i} q1"] = a.q.proxy, a.q1.proxy
    degrees = {k: len(s.coef) - 1 for k, s in out.items() if k.startswith("a2")}
    assert {d for k, d in degrees.items() if k.endswith("q")} == {67, 224, 323, 515}
    assert {d for k, d in degrees.items() if k.endswith("q1")} == {40, 135, 195, 310}
    return out


def _nodes(series, n):
    a, b = series.domain
    inner = a + (b - a) * np.random.default_rng(7).random(n - 2)
    return np.concatenate([[a, b], inner])


def _bound(series):
    return 8.0 * EPS * np.sum(np.abs(series.coef))


def test_cheb_fit_returns_polynomials_at_their_own_degree():
    assert len(cheb_fit(lambda x: 3.0 * x * x - x + 2.0, (-0.5, 2.0), "quadratic").coef) == 3
    assert np.array_equal(cheb_fit(lambda x: 0.0 * x, (0.0, 1.0), "zero").coef, [0.0])
    # g = sin on the cos demo: q = 2u exactly
    prob = sw.PhaseProblem(a=0.0, b=np.pi / 2.0, p=2, f=lambda t: -np.cos(t),
                           fprime=np.sin, fsecond=np.cos, g=np.sin)
    assert len(sw.amplitude_data(prob).q.proxy.coef) - 1 == 1
    # the Gaussian's sphere average is constant, so its l = 3 pole amplitudes are linear
    fam = sw.QFamily(sw.gaussian_symbol(3), np.array([0.0, 0.6, 0.8]), 1.0)
    assert all(len(s.coef) - 1 <= 2 for a in fam.amps for s in (a.q.proxy, a.q1.proxy))


def test_cheb_fit_unresolved_raises_naming_label_degree_and_tail():
    with pytest.raises(ResolutionError,
                       match=r"^kink: Chebyshev tail \d\.\d\de-\d\d .* at degree 4096$"):
        cheb_fit(np.abs, (-1.0, 1.0), "kink")


def test_cheb_series_match_40_digit_clenshaw(proxies):
    import mpmath as mp

    def clenshaw(coef, t):
        with mp.workdps(40):
            t, b1, b2 = mp.mpf(t), mp.mpc(0), mp.mpc(0)
            for c in coef[:0:-1]:
                b1, b2 = mp.mpc(c) + 2 * t * b1 - b2, b1
            return complex(mp.mpc(coef[0]) + t * b1 - b2)

    for label, series in proxies.items():
        x = _nodes(series, 10)
        off, scl = series.mapparms()
        ref = np.array([clenshaw(series.coef, off + scl * xi) for xi in x])
        got = cheb_series_values([series], x)[0]
        assert np.max(np.abs(got - ref)) <= _bound(series), label


def test_cheb_series_match_numpy_clenshaw(proxies):
    for label, series in proxies.items():
        x = _nodes(series, 400)
        got = cheb_series_values([series], x)[0]
        assert np.max(np.abs(got - series(x))) <= _bound(series), label


def test_cheb_series_batch_over_blocks_equals_single_calls(proxies):
    qs = [proxies[f"a2 r=10.0 pole {i} q"] for i in (0, 1)]
    series = [d for q in qs for d in (q, q.deriv(1), q.deriv(3))]
    per_block = _CHEB_BLOCK // len(qs[0].coef)
    x = _nodes(qs[0], 3 * per_block + 11)
    assert len(list(cheb_series_blocks(series, x))) == 4
    batch = cheb_series_values(series, x)
    for i in np.unique(np.r_[0:len(x):7, per_block + np.arange(-2, 2)]):
        assert np.array_equal(cheb_series_values(series, x[i : i + 1])[:, 0], batch[:, i]), i
    # and through the cutoff products of both poles, Leibniz sum included
    cutoff = sw.SmoothCutoff(1.5, 1.75)
    prods = [sw.CutoffProduct(q, cutoff, 2, 0.0, 1.36) for q in qs]
    derivs = sw.cutoff_product_derivs(prods, 3, x)
    for i in np.r_[0:len(x):23]:
        assert np.array_equal(sw.cutoff_product_derivs(prods, 3, x[i : i + 1])[:, 0],
                              derivs[:, i]), i


def test_cutoff_products_evaluated_together_must_match():
    q = npcheb.Chebyshev([1.0, 0.5], domain=[0.0, 1.36])
    cutoff = sw.SmoothCutoff(1.5, 1.75)
    for other in (sw.CutoffProduct(q, cutoff, 1, 0.0, 1.36),
                  sw.CutoffProduct(q, sw.SmoothCutoff(1.5, 1.8), 2, 0.0, 1.36),
                  sw.CutoffProduct(npcheb.Chebyshev([1.0], domain=[0.0, 1.4]),
                                   cutoff, 2, 0.0, 1.36)):
        with pytest.raises(sw.UsageError):
            sw.cutoff_product_derivs([sw.CutoffProduct(q, cutoff, 2, 0.0, 1.36), other],
                                     1, np.array([0.5]))
