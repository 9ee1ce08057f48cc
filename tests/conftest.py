import os

# Idle OpenBLAS workers spin on the other cores after every threaded call.
# The suite's BLAS work is matrix-vector products that gain nothing from
# them, and the spinning takes the cores that rmquant's own thread pool
# computes on; the benchmark pins BLAS the same way.  Set before numpy
# loads; an explicit setting in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from rmquant import CevParams, GbmParams, cev_model, gbm_model

# Canonical experiment parameters used across the suite.
GBM = GbmParams(s0=100.0, r=0.05, sigma=0.3)
CEV = CevParams(s0=100.0, r=0.05, alpha=0.7, sigma_ln=0.3)
CEV_LOW_ALPHA = CevParams(s0=0.5, r=0.05, alpha=0.35, sigma_ln=0.5)


@pytest.fixture(scope="session")
def gbm():
    return gbm_model(GBM)


@pytest.fixture(scope="session")
def cev():
    return cev_model(CEV)


@pytest.fixture(scope="session")
def cev_low_alpha():
    return cev_model(CEV_LOW_ALPHA)


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def assert_derivative(fn, deriv, points, rtol=1e-5, floor=1e-9):
    """Central-difference check of deriv == d/dx fn at the given points."""
    points = np.asarray(points, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(points))
    fd = (fn(points + h) - fn(points - h)) / (2.0 * h)
    ref = deriv(points)
    scale = np.maximum(np.abs(ref), floor)
    assert np.max(np.abs(fd - ref) / scale) < rtol
