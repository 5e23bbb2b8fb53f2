import numpy as np
import pytest

import sympwave as sw
from sympwave import model_integral, stationary_phase


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with every process-wide cache empty."""
    sw.clear_caches()
    yield
    sw.clear_caches()


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


def counted_xi_builds(monkeypatch):
    """Lists that record every sphere-level probe, q family and R2 Filon build."""
    builds = {"level": [], "family": [], "r2": []}
    level, family_init = model_integral._sphere_level, model_integral.QFamily.__init__
    filon = stationary_phase.FilonPanels

    def counted_level(*args):
        builds["level"].append(level(*args))
        return builds["level"][-1]

    def counted_family(self, *args):
        family_init(self, *args)
        builds["family"].append(self)

    def counted_r2(*args, **kwargs):
        builds["r2"].append(filon(*args, **kwargs))
        return builds["r2"][-1]

    monkeypatch.setattr(model_integral, "_sphere_level", counted_level)
    monkeypatch.setattr(model_integral.QFamily, "__init__", counted_family)
    monkeypatch.setattr(stationary_phase, "FilonPanels", counted_r2)
    return builds
