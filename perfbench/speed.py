"""The machine's current speed, from a fixed calibration kernel.

The machine the benchmark runs on is shared: its throughput swings by about
25% either way over seconds to minutes.  So the kernel, which does the kinds
of work the program does (interpreted Python, small batched linear algebra, a
special function over a vector, Philox substream set-up), runs right before
and right after each timed program call and every ``SAMPLE_S`` seconds during
it, from a timer signal.  The call's wall time, less the kernel runs inside
it, is scaled to the reference speed by the mean of ``REFERENCE_S / kernel``
over those runs.  The kernel does not touch the program, so a change of the
program moves the scaled time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import special

# the kernel's median time on the machine the benchmark was defined on
# (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 0.0051
SAMPLE_S = 1.0

_MATRICES = np.random.default_rng(1).standard_normal((16, 4, 4)) + 4.0 * np.eye(4)
_GRID = np.linspace(-4.0, 4.0, 4096)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel, about 5 ms."""
    start = time.perf_counter()
    total = 0.0
    for i in range(40):
        for j in range(500):
            total += j * 0.5
        np.linalg.inv(_MATRICES)
        special.ndtr(_GRID)
        np.random.Generator(np.random.Philox(key=i)).standard_normal(64)
    return time.perf_counter() - start


class Clock:
    """Times calls and scales each to the reference speed."""

    def __init__(self):
        self._kernel = kernel_s()

    def time(self, call, *args, **kwargs):
        """Returns (result, wall seconds, seconds at the reference speed)."""
        kernels = [self._kernel]
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            start = time.perf_counter()
            kernels.append(kernel_s())
            paused += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= paused
        self._kernel = kernel_s()
        kernels.append(self._kernel)
        return result, wall, wall * statistics.fmean(REFERENCE_S / k for k in kernels)
