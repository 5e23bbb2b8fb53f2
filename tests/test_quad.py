import numpy as np

from sympwave._quad import FilonPanels, integrate_panels, refine


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
