import cmath

import mpmath as mp
import numpy as np
import pytest

from sympwave import GammaPoleError, log_gamma

mp.mp.dps = 30


def test_value_at_one():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)


def test_value_at_half():
    assert log_gamma(0.5).real == pytest.approx(float(mp.log(mp.sqrt(mp.pi))), abs=1e-14)
    assert log_gamma(0.5).imag == pytest.approx(0.0, abs=1e-14)


def test_gamma_of_i_modulus():
    # |Gamma(i)|^2 = pi / sinh(pi), from the reflection formula
    val = abs(cmath.exp(log_gamma(1j)))
    ref = float(mp.sqrt(mp.pi / mp.sinh(mp.pi)))
    assert val == pytest.approx(ref, rel=1e-12)


def test_relative_accuracy_against_mpmath():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-50, 50, size=(300, 2))
    worst = 0.0
    for re, im in pts:
        z = complex(re, im)
        if abs(z) > 50 or (abs(im) < 0.3 and re < 0.5):
            continue  # stay off the pole line
        mine = cmath.exp(log_gamma(z))
        ref = complex(mp.gamma(mp.mpc(re, im)))
        worst = max(worst, abs(mine - ref) / abs(ref))
    assert worst <= 1e-12


def test_recurrence_real_parts():
    rng = np.random.default_rng(11)
    z = rng.uniform(-10, 10, size=(1000, 2)).view(complex).ravel()
    z = z[np.abs(z.imag) > 1e-3]
    lhs = np.real(log_gamma(z + 1) - log_gamma(z) - np.log(z.astype(complex)))
    assert np.max(np.abs(lhs)) <= 1e-11


def test_conjugation_symmetry():
    rng = np.random.default_rng(3)
    z = rng.uniform(-8, 8, size=(200, 2)).view(complex).ravel()
    z = z[np.abs(z.imag) > 1e-2]
    a = log_gamma(np.conj(z))
    b = np.conj(log_gamma(z))
    assert np.max(np.abs(a - b)) <= 1e-12 * np.maximum(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-15j])
def test_pole_errors(z):
    with pytest.raises(GammaPoleError):
        log_gamma(z)


def test_array_shape_roundtrip():
    z = np.array([[1.0, 2.0], [0.5 + 1j, 3.0 - 2j]])
    out = log_gamma(z)
    assert out.shape == z.shape
    assert out[0, 0] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("im", [1e2, 1e3, 1e4, 1e6])
def test_large_imaginary_part_at_the_conditioning_floor(im):
    # exp(log_gamma) is Gamma to within eps |log Gamma(z)|, the floor set by
    # rounding the log itself, on both half-planes and both sides of Re z = 0
    for z in (complex(0.5, im), complex(3.0, im), complex(-7.25, im), complex(2.0, -im)):
        ref = mp.loggamma(mp.mpc(z.real, z.imag))
        err = abs(mp.exp(mp.mpc(log_gamma(z)) - ref) - 1)
        assert err <= 1e-15 * abs(ref) + 1e-13
