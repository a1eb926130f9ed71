"""Machine-speed probe: a fixed kernel timed every ``PERIOD_S`` seconds.

The speed of a shared host drifts by tens of percent within seconds, for
every process alike.  While a :class:`SpeedProbe` is active, a ``SIGALRM``
handler times a fixed calibration kernel (the benchmark's own polynomial
multiply, never formcalc code), inside long ops as well as between ops.
:meth:`SpeedProbe.scale` turns time spent in an interval into seconds at the
reference speed, from the readings taken in that interval and one period
either side.  The handler's own time accumulates in ``busy``; callers
subtract it from what they time.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import qpoly

PERIOD_S = 0.05
# the kernel's typical time on a shared 2-CPU x86-64 virtual machine with
# Python 3.11, so scaled times read as seconds there
REFERENCE_S = 0.0011

_RNG = random.Random(0)
_A = qpoly.rand_poly(_RNG, 4, 14, 1, 4)
_B = qpoly.rand_poly(_RNG, 4, 14, 1, 4)


def kernel_seconds():
    start = time.perf_counter()
    qpoly.mul(_A, _B)
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.times = []
        self.readings = []
        self.busy = 0.0
        self._previous = None
        self._reading = False

    def _on_alarm(self, signum, frame):
        if self._reading:  # a slow reading outlasted the period
            return
        self._reading = True
        start = time.perf_counter()
        reading = kernel_seconds()
        self.times.append(start)
        self.readings.append(reading)
        self.busy += time.perf_counter() - start
        self._reading = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def scale(self, start, end):
        """Factor from seconds spent in ``[start, end]`` to reference seconds."""
        lo = bisect.bisect_left(self.times, start - PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PERIOD_S)
        if lo == hi:  # no reading that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.readings[lo:hi])

    def median_reading(self):
        return statistics.median(self.readings)
