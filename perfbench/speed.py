"""Calibration of timings for the drifting speed of a shared CPU.

On a shared host the interpreter's speed drifts, by up to 2x over tens of
seconds, as other tenants load the machine; the drift moves every timing of
a run together, so raw wall times of one workload spread by 25-40% from run
to run.  `SpeedProbe` runs a fixed numpy/Python kernel in the main thread
every PERIOD_S seconds (from a SIGALRM timer) and records the CPU time it
took.  A span of wall time is then reported at the reference speed:
multiplied by the mean of REFERENCE_KERNEL_S / kernel time over the span.
The ratio of jetsid's work to the kernel's stays within a few percent while
both drift together.

The kernel uses numpy only, never jetsid, so no change to the program can
change the reference.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# a span with fewer samples than this is calibrated by those within WINDOW_S
MIN_SAMPLES = 10
WINDOW_S = 0.5
# kernel CPU time that defines the reference speed: about its cost when the
# 2-core shared VM the baseline in README.md was measured on is least loaded
# (its median there was 0.55-0.75 ms)
REFERENCE_KERNEL_S = 4e-4


def kernel() -> float:
    """Small-array numpy calls driven from a Python loop, like jetsid's hot loops."""
    x = np.zeros(2)
    a = np.array([[0.1, 0.2], [0.3, 0.4]])
    s = 0.0
    for _ in range(150):
        x = np.tanh(a @ x + 0.1)
        s += float(x[0])
    return s


class SpeedProbe:
    """Kernel CPU times sampled over a run, and the scaling they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self, *_signal_args) -> None:
        c0 = time.thread_time()
        kernel()
        self.costs.append(time.thread_time() - c0)
        self.times.append(time.perf_counter())

    def start(self) -> None:
        """Sample every PERIOD_S seconds of wall time until `stop`."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_KERNEL_S / kernel time over the samples taken
        from t0 to t1, or within WINDOW_S of it when it holds fewer than
        MIN_SAMPLES.  The samples are evenly spaced in wall time, so this
        mean turns wall time into time at the reference speed."""
        costs = self._costs(t0, t1)
        if len(costs) < MIN_SAMPLES:
            costs = self._costs(t0 - WINDOW_S, t1 + WINDOW_S)
        return statistics.fmean(REFERENCE_KERNEL_S / c for c in costs)

    def _costs(self, t0: float, t1: float) -> list[float]:
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        return self.costs[i:j] or self.costs[max(0, i - 1):i + 1]

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 (perf_counter) at the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)
