"""Host-speed calibration for timings taken on a shared, noisy host.

Other tenants of the sandbox slow the CPU by up to 2x, in stretches of
seconds to minutes, and the slowdown hits a whole 20-second run as often as
part of it.  A fixed calibration kernel, timed before every op of a run,
follows that slowdown.  A run's host factor is the median kernel time over
REF_S, and its timings are divided by the factor to the power EXPONENT.

The exponent is measured, not assumed.  Across 160 runs in four sets of
ten per workload, taken hours apart with run host factors from 0.57 to
1.52, the log of every raw timing rose with the log of the host factor at a
slope between 0.40 and 0.67, with correlations of 0.81 to 0.96 (set-up:
slope 0.46, correlation 0.72): the kernel, a tight interpreter loop, feels
host contention about twice as much as the library does.  Replaying those runs with
EXPONENT = 0.5, the medians of the four sets stayed within 16% of each
other on every timing and 22% on set-up, against up to 37% unadjusted.
The adjustment scales host speed only: a change to deltaprime moves the
adjusted timings as much as the raw ones, because the kernel does not use
the library.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# nominal kernel time, near its median on the host the benchmark was written
# on, so that adjusted times stay close to raw ones there
REF_S = 0.004
EXPONENT = 0.5
_ITERATIONS = 1000


def kernel():
    """Fixed interpreter-bound work: small numpy products in a loop."""
    m = np.eye(2)
    acc = 0.0
    for i in range(_ITERATIONS):
        c = 1e-3 * (i % 7)
        m = np.array(((1.0, c), (-c, 1.0))) @ m
        acc += abs(float(m[0, 0])) + (i * 7) % 5 * 1e-3
    return acc


class Calibration:
    """Kernel slices taken during a run."""

    def __init__(self):
        self.slice_times = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.slice_times.append(time.perf_counter() - t0)

    def factor(self):
        """The run's host factor: median kernel time over REF_S."""
        return statistics.median(self.slice_times) / REF_S

    def scale(self):
        """What a run's times are divided by (rates multiplied by)."""
        return self.factor() ** EXPONENT
