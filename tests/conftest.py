import numpy as np
import pytest

import sympwave as sw
from sympwave import wave_kernel


@pytest.fixture(autouse=True)
def fresh_transform_tables():
    """Each test starts and ends with an empty cache of profile transform tables."""
    wave_kernel._transform_table.cache_clear()
    yield
    wave_kernel._transform_table.cache_clear()


@pytest.fixture(scope="session")
def cos_problem():
    return sw.PhaseProblem(a=0.0, b=np.pi / 2, p=2,
                           f=lambda t: -np.cos(t), fprime=np.sin, fsecond=np.cos,
                           g=lambda t: 1.0)


@pytest.fixture(scope="session")
def h3_geometry():
    return sw.rank_one_geometry("h3")


@pytest.fixture(scope="session")
def exp_profile():
    return sw.Profile("exponential", 1.0)


def j0_series(z):
    """Power-series Bessel J0, reliable for moderate arguments."""
    term, acc, k = 1.0, 1.0, 0
    while abs(term) > 1e-18 and k < 200:
        k += 1
        term *= -(z * z / 4.0) / (k * k)
        acc += term
    return acc
