"""Machine-speed sampling for timings taken on shared hardware.

On a shared host the speed at which one core runs this interpreter flips
between a fast and a slow state (about a factor of two for tight loops)
many times a minute, far more than the changes the benchmark must resolve.
While a pass runs, :class:`SpeedSampler` times a fixed micro-kernel — small
matrix products and dictionary updates, the mix of the workloads' per-step
loops — from a ``SIGALRM`` handler every ``PERIOD`` seconds.  A timed
interval is then rescaled to a machine on which the kernel takes
``REFERENCE_S`` seconds::

    scaled = (wall - time spent in the sampler) * mean(REFERENCE_S / kernel)

over the samples taken during the interval (and within two periods of it).
On a shared two-vCPU Intel Xeon virtual machine (2.0 GHz, Python 3.11,
numpy 2.4), the log of a stage's wall time regressed on the log of the mean
kernel time during the stage, over passes of all three workloads, gave
slopes of 0.90 to 1.18 (correlation 0.83 to 0.996): work and kernel slow
down together.  That slope was measured on one version of the package, so
every run fits it again over its own passes (``speed_slope`` in
``run.py``) and flags slopes outside that range.  Over repeated runs of
one seed the spread of the median pass time fell from about 50% of the
median to about 5%.  The sampler costs about 1.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
REFERENCE_S = 0.0005

_M = np.full((8, 8), 0.125)


def kernel() -> float:
    """About 0.5 ms of small matrix products and dictionary updates."""
    a = np.ones(8)
    acc = 0.0
    for _ in range(150):
        a = _M @ a
        acc += float(a.sum())
    bins: dict[int, int] = {}
    for i in range(1000):
        bins[i % 97] = bins.get(i % 97, 0) + i
    return acc + sum(bins.values())


class SpeedSampler:
    """Context manager that samples the kernel while active.

    ``spent`` accumulates the time the handler took, so intervals can leave
    it out; ``factor(start, end)`` is the rescaling factor of an interval.
    """

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.kernel_s.append(took)
        self.factors.append(REFERENCE_S / took)
        self.spent += took

    def __enter__(self):
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean rescaling factor of the samples taken from two periods
        before ``start`` to two periods after ``end``; of all samples when
        none fall there."""
        lo = bisect.bisect_left(self.times, start - 2 * PERIOD)
        hi = bisect.bisect_right(self.times, end + 2 * PERIOD)
        chosen = self.factors[lo:hi] or self.factors
        return statistics.fmean(chosen) if chosen else 1.0
