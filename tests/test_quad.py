import warnings

import numpy as np

from sympwave._quad import (_TABLE_BLOCK, AccuracyWarning, ChebTable, FilonPanels,
                            integrate_panels, refine)


def test_row_batched_filon_matches_one_panel_set_per_row():
    widths = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
    freqs = np.array([-40.0, 0.0, 0.7, 13.0, 250.0])

    def rows(s):
        return np.exp(-widths[:, None] * s[None, :] ** 2) * (1.0 + 1j * s[None, :])

    batched = FilonPanels(rows, 0.0, 3.0, n_panels=24, max_panels=24)
    assert batched.coeffs.shape[0] == len(widths)
    together = batched.integrate(freqs)
    for j, (c, om) in enumerate(zip(widths, freqs)):
        single = FilonPanels(lambda s, c=c: np.exp(-c * s**2) * (1.0 + 1j * s), 0.0, 3.0,
                             n_panels=24, max_panels=24)
        alone = single.integrate(om)
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


def test_refine_evaluates_the_third_level_only_on_disagreement():
    seen = []

    def close(level):
        seen.append(level)
        return np.array([1.0, 2.0 + 1e-13 * level])

    assert refine(close, (1, 2, 3), 1e-12)[1] == 2.0 + 2e-13
    assert seen == [1, 2]
    seen.clear()
    assert refine(close, (1, 2, 3), 1e-14)[1] == 2.0 + 3e-13
    assert seen == [1, 2, 3]
