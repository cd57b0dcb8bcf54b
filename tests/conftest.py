import numpy as np
import pytest
from hypothesis import settings

from d2dshare import NetworkParams

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def table1() -> NetworkParams:
    """Baseline parameter point used throughout (the numerical defaults)."""
    return NetworkParams()


@pytest.fixture
def jout_scipy():
    """Jout(x, alpha) in closed form through scipy's hyp2f1, independent of the package.

    With b = 2/alpha and F(c; x) = 2F1(1, c; 1+c; -x):
    Jout = b x / (2 (1 - b)) F(1 - b; x) - (1 - F(b; x)) / 2.
    """
    from scipy import special as sps

    def jout(x, alpha):
        b = 2.0 / alpha
        f_b = sps.hyp2f1(1.0, b, 1.0 + b, -x)
        f_1b = sps.hyp2f1(1.0, 1.0 - b, 2.0 - b, -x)
        return b * x / (2.0 * (1.0 - b)) * f_1b - (1.0 - f_b) / 2.0

    return jout


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
