import numpy as np

from sympwave._quad import FilonPanels, refine


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
