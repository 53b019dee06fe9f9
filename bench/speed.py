"""Machine-speed calibration for timings on a shared host.

On a host whose processor is shared with other tenants, the speed of a
single thread drifts by tens of percent over seconds (the same code has
been seen to run 1.7x slower for a minute at a time).  Process CPU time
drifts with it, so it cannot be subtracted away.  The benchmark
therefore runs a fixed calibration kernel, independent of ``wparab``,
between jobs (at most every ``GAP_S`` seconds) and reports each job time
scaled by ``KERNEL_REF_S / kernel time measured next to it``: seconds at
the reference speed at which the kernel takes ``KERNEL_REF_S``.  The
kernel mixes the operations the workloads spend their time on: scalar
``math`` calls, Python-level recursion and small numpy calls.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# duration of the kernel in the fast phase of a 2-core Intel Xeon host
# (Python 3.11, numpy 2.4); only the unit of the scaled times depends on it
KERNEL_REF_S = 0.0085
GAP_S = 0.1
NEIGHBOURS = 2


def _node(depth, x):
    return x if depth == 0 else _node(depth - 1, x) + _node(depth - 1, 0.5 * x)


def kernel():
    acc = 0.0
    v = np.arange(1.0, 16.0)
    for i in range(1200):
        for j in range(30):
            acc += math.exp(-0.05 * j) * (i - j)
        acc += _node(4, 1e-3 * i)
        acc += float(np.dot(v, v)) * 1e-6
    return acc


class SpeedProbe:
    """Kernel timings along the run, and the scale factor of any interval."""

    def __init__(self):
        self.ends = []
        self.durations = []

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def maybe_sample(self):
        if not self.ends or perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def factor(self, start, end):
        """KERNEL_REF_S over the median kernel time of the NEIGHBOURS
        samples before ``start`` and the NEIGHBOURS after ``end``."""
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_left(self.ends, end)
        near = (self.durations[max(0, lo - NEIGHBOURS):lo]
                + self.durations[hi:hi + NEIGHBOURS])
        return KERNEL_REF_S / statistics.median(near or self.durations)
