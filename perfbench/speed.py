"""Machine-speed calibration for timings on a shared machine.

On a shared two-core machine the speed available to one process drifts by
about 20% over tens of seconds, and all code slows down together: measured
on lesmis, the 10-second medians of a Monte-Carlo estimate varied with an
interquartile spread of 20%, but their ratio to the kernel below only 6%.
So while a workload runs, a timer signal samples the kernel every
``INTERVAL`` seconds, and every measured time is scaled by ``KERNEL_REF_S``
over the kernel's median duration around it. Scaled times are seconds on a
machine where the kernel takes ``KERNEL_REF_S``; the raw times are printed
too. The kernel is the benchmark's own code, so a change to the program
cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
KERNEL_REF_S = 0.001
NEAREST = 9        # samples used when a window holds fewer
_M = np.arange(10_000.0).reshape(100, 100) / 1e4


def kernel() -> float:
    """A fixed mix of interpreted loop and small BLAS call; about 1 ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    (_M @ _M).sum()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``kernel`` from SIGALRM while started."""

    def __init__(self):
        self.samples = []   # (time, kernel duration)

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), kernel()))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured over [start, end]: the reference
        duration over the median kernel duration sampled in that window, or
        at the ``NEAREST`` samples closest to it when it holds fewer."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
            inside = [d for _, d in nearest]
        if not inside:
            inside = [kernel() for _ in range(NEAREST)]
        return KERNEL_REF_S / statistics.median(inside)


def scale_now(samples: int = 9) -> float:
    """Factor from kernel runs made now, for a time just measured."""
    return KERNEL_REF_S / statistics.median(kernel() for _ in range(samples))
