"""Machine-speed sampling, so that timings on a shared host can be compared.

The CPU speed a process gets on a shared host swings between fast and slow
states many times a second, and the share of time spent slow drifts by
tens of percent over minutes. A `Sampler` therefore runs a fixed reference
kernel of about half a millisecond from a SIGALRM handler every INTERVAL_S
seconds while the timed work runs. The mean kernel time over the interval
is proportional to the mean slowdown the work saw, so

    scaled = (wall - time spent in the handler) * NOMINAL_S / mean kernel

is the interval's time at nominal machine speed. The kernel belongs to the
benchmark, so no change to ctmdp can alter it; its mix (interpreted
arithmetic, numpy scalar calls and tiny-array updates) is that of ctmdp's
inner loops.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 300
# mean kernel time on the machine the baseline was recorded on (2 vCPUs of
# a shared Intel Xeon host, Python 3.11, numpy 2.4), so scaled times read
# as seconds on that host in its typical state
NOMINAL_S = 0.0005


class Sampler:
    """Context manager that samples the reference kernel's time every
    INTERVAL_S seconds while it is entered. Only the main thread can use it
    (signal handlers run there)."""

    def __init__(self):
        self.samples = []        # kernel times
        self.spent_s = 0.0       # total time inside the handler
        self._rng = np.random.default_rng(12345)
        self._values = np.zeros(64)
        self._previous = None

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(KERNEL_ITERATIONS):
            x = (i * 37) & 63
            self._values[x] += self._rng.exponential(1.0)
            acc += float(self._values[x]) * 0.5 + (i * i) % 7
        if acc != acc:           # consume the result
            raise ArithmeticError("reference kernel produced NaN")
        return time.perf_counter() - t0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self._kernel())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:     # interval shorter than the first tick
            self.samples.append(self._kernel())

    def mean_kernel_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self, wall_s: float) -> tuple:
        """(wall time net of the handler, that time at nominal speed)."""
        net = wall_s - self.spent_s
        return net, at_nominal(net, self.mean_kernel_s())


def at_nominal(seconds: float, mean_kernel_s: float) -> float:
    """`seconds` during which the kernel took `mean_kernel_s` on average,
    rescaled to nominal machine speed."""
    return seconds * NOMINAL_S / mean_kernel_s
