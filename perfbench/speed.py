"""Machine-speed factor for the benchmark's timings.

On a shared virtual machine (2 vCPUs, Intel Xeon, KVM) the CPU speed seen
by one process drifts by 15-30% over tens of seconds; CPU time drifts
with wall time and steal time stays near zero, so the drift comes from
the host.  That is larger than the regressions the benchmark should catch.

While a run measures, a timer signal every ``PERIOD_S`` seconds times a
fixed numpy/scipy kernel (the erfc and exp work that dominates rmquant),
and a sample is also taken at the start and end of each timed call.  The
speed factor of an interval is the median kernel time inside it over
``REFERENCE_S``, the kernel's median time on that machine (with
Python 3.11, numpy 2.4, scipy 1.17).  A timing divided by
its factor is in reference seconds: what it would have taken at the
reference speed.  The signal costs about 0.2% of a pass.
"""

from __future__ import annotations

import signal
import time
from statistics import median

import numpy as np
from scipy.special import ndtr

PERIOD_S = 0.2
REFERENCE_S = 3.0e-4
_X = np.random.default_rng(0).standard_normal((64, 65))


def kernel_seconds() -> float:
    """Time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(4):
        ndtr(_X)
        np.exp(-0.5 * _X * _X)
    return time.perf_counter() - t0


class SpeedSampler:
    """Kernel timings taken by a timer signal while the block runs."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        self.samples.append((time.perf_counter(), kernel_seconds()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, *windows):
        """Median kernel time inside the (t0, t1) windows over the reference
        time; None when no sample fell inside them."""
        inside = [d for t, d in self.samples
                  if any(t0 <= t <= t1 for t0, t1 in windows)]
        return median(inside) / REFERENCE_S if inside else None
