import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympwave as sw
from sympwave.errors import UsageError


def test_h3_invariants():
    d = sw.preset("h3")
    assert d.rank == 1
    assert d.reduced_roots[0].m_alpha == 2
    assert d.reduced_roots[0].m_2alpha == 0
    assert d.d == 1 and d.n == 3 and d.nu == 3
    assert np.allclose(d.rho, [1.0])


def test_a2_invariants():
    d = sw.preset("a2")
    assert d.rank == 2 and d.d == 3 and d.n == 5 and d.nu == 8


def test_ch2_invariants():
    d = sw.preset("ch2")
    assert d.d == 1 and d.n == 4 and d.nu == 3
    assert np.allclose(d.rho, [2.0])


@pytest.mark.parametrize("name", sw.PRESET_NAMES)
def test_structural_identities(name):
    d = sw.preset(name)
    assert d.nu == 2 * d.d + d.rank
    assert d.n == d.rank + sum(r.m_alpha + r.m_2alpha for r in d.reduced_roots)


def test_unknown_preset_lists_names():
    with pytest.raises(UsageError, match="h3"):
        sw.preset("nope")


def test_pairing_examples():
    d = sw.preset("a2")
    alpha = d.reduced_roots[0]
    assert sw.pairing(d, alpha.as_array(), alpha) == pytest.approx(1.0)
    assert sw.pairing(d, np.zeros(2), alpha) == 0.0
    assert sw.pairing(d, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_rho_of_examples():
    h3 = sw.preset("h3")
    assert sw.rho_of(h3, 1.0) == pytest.approx(1.0)
    assert sw.rho_of(h3, 0.0) == 0.0
    ch2 = sw.preset("ch2")
    assert sw.rho_of(ch2, 2.0) == pytest.approx(4.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-3, 3),
       st.floats(-3, 3), st.floats(-4, 4))
def test_rho_of_linear(a1, a2_, b1, b2, c):
    d = sw.preset("a2")
    H1, H2 = np.array([a1, a2_]), np.array([b1, b2])
    lhs = sw.rho_of(d, H1 + c * H2)
    rhs = sw.rho_of(d, H1) + c * sw.rho_of(d, H2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_reflection_is_involution():
    d = sw.preset("a2")
    lam = np.array([0.37, -1.2])
    for root in d.reduced_roots:
        assert np.allclose(sw.reflect(sw.reflect(lam, root), root), lam)


def test_weyl_orbit_sizes():
    a2 = sw.preset("a2")
    assert len(sw.weyl_orbit(a2, np.array([0.3, 0.7]))) == 6
    h3 = sw.preset("h3")
    assert len(sw.weyl_orbit(h3, np.array([1.3]))) == 2


def test_degenerate_root_data_rejected():
    with pytest.raises(UsageError):
        sw.RootDatum(1, (sw.ReducedRoot((0.0,), 1, 0),))
    with pytest.raises(UsageError):
        sw.RootDatum(1, (sw.ReducedRoot((1.0,), 1, 0), sw.ReducedRoot((2.0,), 1, 0)))
    # not a positive system: <rho, (1, 0)> = 0, a pole of c(-i rho)
    with pytest.raises(UsageError, match="positive system"):
        sw.RootDatum(2, (sw.ReducedRoot((1.0, 0.0), 1, 0), sw.ReducedRoot((-1.0, 1.0), 1, 0)))


@pytest.mark.parametrize("m_alpha, m_2alpha", [
    (0, 0), (-1, 0), (1, -1), (2.0, 0), (2, 1.0), (1.5, 0), (1, 1), (3, 2)])
def test_multiplicities_outside_symmetric_spaces_rejected(m_alpha, m_2alpha):
    # integers m_alpha >= 1 and m_2alpha >= 0, and m_2alpha > 0 only with an
    # even m_alpha: the data every Plancherel factor has a closed form for
    with pytest.raises(UsageError, match="m_2alpha"):
        sw.RootDatum(1, (sw.ReducedRoot((1.0,), m_alpha, m_2alpha),))


@pytest.mark.parametrize("m_alpha, m_2alpha", [(1, 0), (2, 1), (4, 3), (8, 7), (np.int64(6), 0)])
def test_multiplicities_of_symmetric_spaces_accepted(m_alpha, m_2alpha):
    d = sw.RootDatum(1, (sw.ReducedRoot((1.0,), m_alpha, m_2alpha),))
    assert d.n == 1 + m_alpha + m_2alpha
