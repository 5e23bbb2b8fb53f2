import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import sympwave as sw
from sympwave import _quad, model_integral, wave_kernel
from sympwave._quad import (_CHEB_BLOCK, _TABLE_BLOCK, AccuracyWarning, ChebTable, FilonPanels,
                            _sph_jn_table, build_once, cheb_fit, cheb_series_blocks,
                            gl_panels_nodes, integrate_panels)
from sympwave.errors import ResolutionError


def test_row_batched_filon_matches_one_panel_set_per_row():
    widths = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
    freqs = np.array([-40.0, 0.0, 0.7, 13.0, 250.0])

    def rows(s):
        return np.exp(-widths[:, None] * s[None, :] ** 2) * (1.0 + 1j * s[None, :])

    batched = FilonPanels(rows, np.linspace(0.0, 3.0, 25))
    assert batched.coeffs.shape[:2] == (len(widths), 24)
    together = batched.integrate(freqs)
    for j, (c, om) in enumerate(zip(widths, freqs)):
        single = FilonPanels(lambda s, c=c: np.exp(-c * s**2) * (1.0 + 1j * s),
                             np.linspace(0.0, 3.0, 25))
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

    batched = FilonPanels(rows, np.linspace(0.0, 3.0, 5))
    alone = FilonPanels(steep, np.linspace(0.0, 3.0, 5))
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

    fil = FilonPanels(bump, np.linspace(0.0, 3.0, 9))
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
        fil = FilonPanels(lambda s: np.sqrt(np.abs(s - 1.0)) + 0j, np.linspace(0.0, 3.0, 9),
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
    alone = [FilonPanels(f, np.linspace(0.0, 3.0, 9)) for f in rows]
    equal = 0
    for members in ([0, 1, 2], [0, 1], [1, 2]):
        batch = FilonPanels(lambda s: np.stack([rows[j](s) for j in members]),
                            np.linspace(0.0, 3.0, 9))
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
    # 1/sqrt(x) never settles; only the row that hits the order cap warns
    grids = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3)]

    def rows(nodes):
        x = nodes["x"]
        return np.where(nodes["row"] == 0, np.exp(x), 1.0 / np.sqrt(x))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        integrate_panels(rows, grids, order0=4, max_order=16, warn_label="rows")
    assert [str(w.message).split(":")[0] for w in caught] == ["rows"]


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


def one_call_per_order(f, breaks, order0, tol, max_order=256, floor_rel=1e-14, exact=False):
    """integrate_panels on one break array as a plain loop, one call of f per
    order: the reference for a row of one slice per order.  With ``exact``,
    also the math.fsum of the last order's products of values and weights
    per entry (:func:`fsum_nodes`), their mass sum |f w| per entry, and that
    order's node count: the reference for a row of several slices."""
    def level(order):
        nodes, weights = gl_panels_nodes(breaks, order)
        fv = f(nodes)
        return fv * weights, np.abs(fv) * np.abs(weights)

    order = order0
    prod, mass = level(order)
    prev, scale = prod.sum(axis=-1), mass.sum(axis=-1).max()
    out = prev
    while order < max_order:
        order *= 2
        prod, mass = level(order)
        out = prod.sum(axis=-1)
        if abs(out - prev).max() <= tol * abs(out).max() + floor_rel * scale + 1e-300:
            break
        prev = out
    return (out, fsum_nodes(prod), mass.sum(axis=-1), prod.shape[-1]) if exact else out


def fsum_nodes(prod):
    """math.fsum of ``prod`` over its last axis, real and imaginary parts apart."""
    rows = np.asarray(prod, dtype=complex).reshape(-1, np.shape(prod)[-1])
    sums = [complex(math.fsum(r.real.tolist()), math.fsum(r.imag.tolist())) for r in rows]
    return np.array(sums).reshape(np.shape(prod)[:-1])


# a row of several slices is within this many eps of its mass sum |f w| of the
# math.fsum of its products at its last order: each slice's own numpy sum
# rounds, pairwise (at most 0.8 eps here) or node by node for F-ordered values
# (at most 29 eps for the 3,000-panel row below, where one numpy sum over the
# row's 60,000 nodes was 43 eps off), and math.fsum of the slice sums once
SLICE_EPS = 64


def assert_slice_rule(got, f, breaks, order0, tol, **quad):
    """``got``, a row on ``breaks``, is the slice rule's value: the bits of one
    call per order if its last order has at most 2^14 nodes, else within
    SLICE_EPS eps of its mass of the exact sum of its products."""
    ref, exact, mass, nodes = one_call_per_order(f, breaks, order0, tol, exact=True, **quad)
    got = np.asarray(got, dtype=complex)
    if nodes <= 1 << 14:
        assert got.tobytes() == np.asarray(ref, dtype=complex).tobytes()
    else:
        err = np.abs(got - exact) / (np.finfo(float).eps * mass)
        assert np.all(err <= SLICE_EPS), err
    return nodes


def oscillating(rate, w, s):
    return np.exp(-rate * s) * (1.0 + 1j * np.sin(w * s))


def call_sizes(panels, levels, taken):
    """The node counts of the integrand calls of one break array of
    ``panels`` panels whose levels of one call per order had ``levels``
    nodes each: each level cut into slices of whole panels with at most
    2^14 nodes, and consecutive slices packed into calls of at most 2^14
    nodes, the first ``taken`` levels together, then each later level."""
    def packed(levels):
        sizes = [0]
        for n in levels:
            order = n // panels
            step = (1 << 14) // order
            for a in range(0, panels, step):
                nodes = order * min(step, panels - a)
                if sizes[-1] + nodes > 1 << 14:
                    sizes.append(0)
                sizes[-1] += nodes
        return sizes
    return packed(levels[:taken]) + [n for level in levels[taken:] for n in packed([level])]


# 3 x 16 x 341 = 16,368 nodes fit one call of orders 16 and 32, and 342 panels
# do not; 700 panels are two slices at order 32, and every case reaches order 64
@pytest.mark.parametrize("panels", [4, 341, 342, 700])
def test_fused_first_call_gives_the_bits_of_one_call_per_order(panels):
    # two rows sharing the nodes, about five periods a panel, so that the
    # order doubles past the first pair at least once; the first pass packs
    # the slices of orders 16 and 32 into calls of at most 2^14 nodes, and
    # the row keeps the bits of one call per order while it has one slice
    rates, w = np.array([0.3, 4.0]), 15.0 * panels
    breaks = np.linspace(0.0, 2.0, panels + 1)
    sizes, levels = [], []

    def rows(s):
        sizes.append(s.size)
        return oscillating(rates[:, None], w, s)

    def alone(s):
        levels.append(s.size)
        return oscillating(rates[:, None], w, s)

    got = integrate_panels(rows, breaks, order0=16, tol=1e-12)
    nodes = assert_slice_rule(got, alone, breaks, 16, 1e-12)
    assert (nodes <= 1 << 14) == (panels == 4)
    assert len(levels) > 2 and sizes == call_sizes(panels, levels, 2)
    assert max(sizes) <= 1 << 14


# 7 x 16 x 146 = 16,352 nodes fit one call of orders 16, 32 and 64; 147 panels
# take two calls, and 342 four; every case but 4 panels has several slices at 128
@pytest.mark.parametrize("panels", [4, 146, 147, 342])
def test_three_order_first_call_gives_the_bits_of_one_call_per_order(panels):
    # about twenty periods a panel, so that the order doubles past 64; the
    # first pass packs the slices of three orders, and no call holds more
    # than 2^14 nodes
    rates, w = np.array([0.3, 4.0]), 60.0 * panels
    breaks = np.linspace(0.0, 2.0, panels + 1)
    sizes, levels = [], []

    def rows(s):
        sizes.append(s.size)
        return oscillating(rates[:, None], w, s)

    def alone(s):
        levels.append(s.size)
        return oscillating(rates[:, None], w, s)

    got = integrate_panels(rows, breaks, order0=16, tol=1e-12, first_orders=3)
    nodes = assert_slice_rule(got, alone, breaks, 16, 1e-12)
    assert (nodes <= 1 << 14) == (panels == 4)
    assert len(levels) > 3 and sizes == call_sizes(panels, levels, 3)
    assert max(sizes) <= 1 << 14


@pytest.mark.parametrize("panels", [(3, 5, 2), (150, 100, 92), (150, 100, 91)])
def test_fused_first_call_gives_each_row_its_bits(panels):
    # per-row breaks: rows go in groups of at most 2^14 nodes (3 x 16 x 341),
    # and each group's first call carries its rows' nodes of orders 16 and 32:
    # one group for 341 panels, two for 342; each row still gets the value
    # and the stopping order it has alone, in one call per order
    rates = np.array([0.3, 4.0, 40.0])
    grids = [np.linspace(0.0, 2.0 / (j + 1), n + 1) for j, n in enumerate(panels)]
    ws = [15.0 * n * (j + 1) for j, n in enumerate(panels)]
    seen = []

    def rows_f(nodes):
        seen.append(np.bincount(nodes["row"], minlength=len(rates)))
        j = nodes["row"]
        return oscillating(rates[j], np.array(ws)[j], nodes["x"])

    got = integrate_panels(rows_f, grids, order0=16, tol=1e-12)
    groups = 1 if 3 * 16 * sum(panels) <= 1 << 14 else 2
    assert sum(seen[:groups]).tolist() == [3 * 16 * n for n in panels]
    assert all(0 < c.sum() <= 1 << 14 for c in seen)
    for j, breaks in enumerate(grids):
        ref = one_call_per_order(lambda s, j=j: oscillating(rates[j], ws[j], s), breaks, 16,
                                 1e-12)
        assert got[j].tobytes() == np.complex128(ref).tobytes(), j


def test_three_order_first_call_gives_each_row_its_bits():
    # per-row breaks: a smooth row stops at order 32, inside the first call,
    # and the rows after it keep their own sums at order 64 and past it
    rates = np.array([0.3, 4.0, 40.0])
    panels, ws = (3, 5, 2), (0.5, 75.0, 150.0)
    grids = [np.linspace(0.0, 2.0, n + 1) for n in panels]
    seen = []

    def rows_f(nodes):
        seen.append(np.bincount(nodes["row"], minlength=len(rates)))
        j = nodes["row"]
        return oscillating(rates[j], np.array(ws)[j], nodes["x"])

    got = integrate_panels(rows_f, grids, order0=16, tol=1e-12, first_orders=3)
    assert list(seen[0]) == [7 * 16 * n for n in panels] and len(seen) >= 2
    stops = []
    for j, breaks in enumerate(grids):
        sizes = []

        def alone(s, j=j):
            sizes.append(s.size)
            return oscillating(rates[j], ws[j], s)
        ref = one_call_per_order(alone, breaks, 16, 1e-12)
        assert got[j].tobytes() == np.complex128(ref).tobytes(), j
        stops.append(len(sizes))
    assert stops[0] == 2 and max(stops) > 3


def test_row_groups_give_each_row_its_bits():
    # 40 rows of 20 to 59 panels, one slice each at every order up to 256:
    # each pass packs the live rows' slices, rows in order, into calls of at
    # most 2^14 nodes, and each row gets the bits and the stopping order it
    # has alone, in one call per order
    gen = np.random.default_rng(7)
    panels = gen.integers(20, 60, size=40)
    rates, ws = gen.uniform(0.1, 5.0, size=40), 15.0 * panels * gen.uniform(0.5, 4.0, size=40)
    grids = [np.linspace(0.0, 2.0, n + 1) for n in panels]
    seen = []

    def rows_f(nodes):
        seen.append(np.bincount(nodes["row"], minlength=len(grids)))
        j = nodes["row"]
        return oscillating(rates[j], ws[j], nodes["x"])

    got = integrate_panels(rows_f, grids, order0=16, tol=1e-12)
    assert max(c.sum() for c in seen) <= 1 << 14
    first = [next(k for k, c in enumerate(seen) if c[j]) for j in range(len(grids))]
    assert first == sorted(first) and len(set(first)) >= 3     # packed in row order
    stops = set()
    for j, breaks in enumerate(grids):
        sizes = []

        def alone(s, j=j):
            sizes.append(s.size)
            return oscillating(rates[j], ws[j], s)
        ref = one_call_per_order(alone, breaks, 16, 1e-12)
        assert got[j].tobytes() == np.complex128(ref).tobytes(), j
        assert sum(c[j] for c in seen) == sum(sizes), j           # the same orders
        stops.add(len(sizes))
    assert len(stops) > 1


def cap_like(lam):
    """Values (columns x nodes), F-ordered as phi's cap weight gives them, of
    cos(lam_k x) e^(-x) for the row of lam ``lam[row]`` of each ROW_NODE."""
    def f(nodes):
        x = nodes["x"]
        return np.cos(lam[nodes["row"]].T * x) * np.exp(-x)
    return f


LAMS = np.array([[0.0, 3.0, 40.0], [0.0, 1.0, 2.0], [0.5, 7.0, 90.0]])


def test_one_large_row_is_summed_in_its_own_memory_order():
    # a row of 3,000 panels has 30,000 nodes at order 10: it is cut into
    # slices of at most 2^14 nodes, between two small rows; each slice is
    # summed in the memory order of its F-ordered values, and the slice sums
    # by math.fsum, so the large row is within SLICE_EPS eps of its mass of
    # the exact sum, and the small rows keep the bits of one call per order
    grids = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 3.0, 3001), np.linspace(0.0, 2.0, 9)]
    seen, f = [], cap_like(LAMS)
    got = integrate_panels(lambda nodes: seen.append(nodes.size) or f(nodes), grids, order0=10,
                           tol=1e-13, max_order=80)
    assert max(seen) <= 1 << 14 and len(seen) > 4 and got.shape == (3, 3)
    for j, breaks in enumerate(grids):
        def alone(x, j=j):
            vals = np.cos(LAMS[np.full(x.size, j)].T * x) * np.exp(-x)
            assert vals.flags.f_contiguous and not vals.flags.c_contiguous
            return vals
        nodes = assert_slice_rule(got[j], alone, breaks, 10, 1e-13, max_order=80)
        assert (nodes > 1 << 14) == (j == 1), j


def test_a_large_row_has_its_bits_alone_between_rows_and_as_one_break_array():
    # each row's slices start at its own first panel, so a row of 3,000 panels
    # (two slices at order 10, more at each later order) has one value whatever
    # rows share its calls, and as a single break array
    big, quad = np.linspace(0.0, 3.0, 3001), dict(order0=10, tol=1e-13, max_order=80)
    between = integrate_panels(cap_like(LAMS), [np.linspace(0.0, 1.0, 5), big,
                                                np.linspace(0.0, 2.0, 9)], **quad)[1]
    alone = integrate_panels(cap_like(LAMS[1:2]), [big], **quad)[0]
    single = integrate_panels(lambda x: np.cos(LAMS[np.ones(x.size, int)].T * x) * np.exp(-x),
                              big, **quad)
    assert between.shape == single.shape == (3,)
    assert between.tobytes() == alone.tobytes() == single.tobytes()


def test_single_break_calls_past_the_budget_keep_their_bits(monkeypatch):
    # R1 at x = 1e5 (about 8,000 panels), the oracle at 1e5 (31,831 panels)
    # and two F-ordered rows sharing 3,000 panels: one break array each, cut
    # into slices of at most 2^14 nodes, so that no integrand call holds more;
    # each value is within SLICE_EPS eps of its mass of the math.fsum of the
    # products of its last order, at the stopping order of one call per order
    from sympwave import stationary_phase
    from sympwave.harness import _cos_demo_problem

    lam = np.array([3.0, 40.0])

    def two_rows(s):
        return (np.cos(s[:, None] * lam) * np.exp(-s)[:, None]).T

    sizes, integrals = [], []

    def recorded(f, breaks, **quad):
        got = integrate_panels(lambda s: sizes.append(s.size) or f(s), breaks, **quad)
        integrals.append((got, f, breaks, quad))
        return got

    monkeypatch.setattr(stationary_phase, "integrate_panels", recorded)
    problem = _cos_demo_problem()
    sw.expand(problem, 1e5, N=1, M=1)
    sw.oracle(problem, 1e5)
    breaks = np.linspace(0.0, 3.0, 3001)
    assert recorded(two_rows, breaks, order0=10, tol=1e-13, max_order=80).shape == (2,)
    assert two_rows(breaks).flags.f_contiguous
    assert max(sizes) <= 1 << 14 and len(sizes) > 100 and len(integrals) == 3
    for got, f, breaks, quad in integrals:
        ref = {k: quad[k] for k in ("max_order", "floor_rel") if k in quad}
        assert assert_slice_rule(got, f, breaks, quad["order0"], quad["tol"], **ref) > 1 << 14


def test_no_fused_call_when_the_first_order_is_the_last():
    sizes = []
    with pytest.warns(AccuracyWarning, match="hit order 16"):
        integrate_panels(lambda s: sizes.append(s.size) or np.exp(s), np.linspace(0.0, 1.0, 5),
                         order0=16, max_order=16)
    assert sizes == [4 * 16]


def test_table_reads_a_large_batch_as_single_points():
    def f(v):
        return np.exp(1j * v) / (1.0 + 0.1 * v * v)
    table = ChebTable(f, 1.0)
    v = np.linspace(-20.0, 20.0, 2 * _TABLE_BLOCK + 123)
    batch = table(v)
    assert np.max(np.abs(batch - f(v))) <= 1e-12
    single = np.array([table(x) for x in v])
    assert batch.tobytes() == single.tobytes()


def _clenshaw_reference(table, v):
    """The table at v by one complex Clenshaw recurrence over all points at once."""
    _, lefts, mids, halves, coeffs = table._flat
    out = np.full(v.shape, np.nan, dtype=complex)
    ok = np.isfinite(v)
    j = np.searchsorted(lefts, v[ok], side="right") - 1
    u2 = 2.0 * (v[ok] - mids[j]) / halves[j]
    cj = coeffs[:, j]
    b1 = b2 = 0.0
    for c in cj[:0:-1]:
        b1, b2 = c + u2 * b1 - b2, b1
    out[ok] = cj[0] + 0.5 * u2 * b1 - b2
    return out


def test_table_read_matches_the_complex_recurrence_bit_for_bit():
    # h4/rational:8 splits the chunks next to v = 0; the batch spans three
    # blocks, the last one short
    ev = sw.KernelEvaluator(sw.rank_one_geometry("h4"), sw.Profile("rational", 8.0))
    table = ev.transform
    v = np.linspace(-3.0, 4.0, 2 * _TABLE_BLOCK + 123)
    got = table(v)
    assert any(len(pieces[0]) > 1 for pieces in table.chunks.values())
    assert got.tobytes() == _clenshaw_reference(table, v).tobytes()
    # a non-finite argument is refused before it builds a NaN chunk into the table
    built = set(table.chunks)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            table(np.array([0.5, bad, 1e3]))
    assert set(table.chunks) == built and table(np.empty(0)).shape == (0,)


# -- spherical-Bessel moments ----------------------------------------------------

def _sph_jn_small_reference(zs, deg):
    """j_k(z) for z < 1/2 by nine Taylor terms, one order at a time."""
    out = np.zeros((deg, zs.size))
    half = 0.5 * zs * zs
    for k in range(deg):
        dfact = np.multiply.reduce(np.arange(1, 2 * k + 2, 2, dtype=float)) or 1.0
        term = zs**k / dfact
        acc = np.zeros_like(zs)
        for m in range(9):
            acc += term
            term *= -half / ((m + 1) * (2.0 * (k + m) + 3.0))
        out[k] = acc
    return out


def test_small_argument_bessel_rows_match_orders_one_at_a_time_and_mpmath():
    import mpmath as mp
    zs = np.r_[0.0, 1e-300, 1e-8, np.linspace(1e-3, 0.5, 200, endpoint=False)]
    got = _sph_jn_table(zs)
    assert got.tobytes() == _sph_jn_small_reference(zs, 16).tobytes()
    assert np.array_equal(got[:, 0], np.eye(16)[0])
    with mp.workdps(30):
        for i, z in enumerate(zs[1:], start=1):
            for k in range(16):
                ref = float(mp.sqrt(mp.pi / (2 * mp.mpf(z))) * mp.besselj(k + 0.5, z))
                # below the smallest normal double a row may underflow to 0
                assert abs(got[k, i] - ref) <= 2e-15 * abs(ref) + np.finfo(float).tiny, (z, k)


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
    assert {d for k, d in degrees.items() if k.endswith("q")} == {65, 221, 321, 509}
    assert {d for k, d in degrees.items() if k.endswith("q1")} == {43, 148, 214, 340}
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


# -- build_once ----------------------------------------------------------------

@pytest.fixture
def own_caches(monkeypatch):
    """build_once caches made by a test register in a list of their own."""
    monkeypatch.setattr(_quad, "_CACHES", [])


def test_build_once_builds_one_value_for_threads_at_once(own_caches):
    builds, got, start = [], [], threading.Barrier(8)

    @build_once(maxsize=4)
    def slow(key):
        builds.append(key)
        time.sleep(0.05)
        return object()

    def worker():
        start.wait()
        got.append(slow("k"))

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert builds == ["k"] and len(got) == 8 and all(value is got[0] for value in got)
    assert slow.cache_info().misses == 1 and slow.cache_info().hits == 7


def test_build_once_caches_no_error(own_caches):
    calls = []

    @build_once(maxsize=2)
    def flaky(key):
        calls.append(key)
        if len(calls) == 1:
            raise ValueError("first build fails")
        return key

    with pytest.raises(ValueError, match="first build fails"):
        flaky(1)
    assert flaky.cache_info().currsize == 0
    assert flaky(1) == 1 and calls == [1, 1]
    assert flaky(1) == 1 and calls == [1, 1]


def test_build_once_evicts_the_least_recently_used_and_counts(own_caches):
    built = []

    @build_once(maxsize=2)
    def square(x):
        built.append(x)
        return x * x

    assert [square(1), square(2), square(1)] == [1, 4, 1]
    assert square(3) == 9                        # evicts 2, the least recently used
    info = square.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 3, 2, 2)
    assert [square(1), square(2)] == [1, 4]      # 1 was kept, 2 is built again
    assert built == [1, 2, 3, 2]
    assert square.cache_info().hits == 2 and square.cache_info().misses == 4
    square.cache_clear()
    assert tuple(square.cache_info()) == (0, 0, 2, 0)
    assert square.__name__ == "square" and square.__wrapped__(5) == 25


def test_clear_caches_empties_every_package_cache(h3_geometry, exp_profile):
    caches = [wave_kernel._transform_table, wave_kernel._radial_weight,
              model_integral._dr_level, model_integral._direct_integral,
              model_integral._q_family]
    sw.dispersive_bound(h3_geometry, exp_profile, 10.0, 4.0)
    sw.xi_decompose(sw.gaussian_symbol(2), np.array([1.0, 0.0]), 1.0, 10.0)
    # the amplitudes' own R2 caches are not process-wide: none registered
    assert sorted(map(id, caches)) == sorted(map(id, _quad._CACHES))
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    sw.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in caches)
