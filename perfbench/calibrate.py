"""Calibration of measured times against a fixed pure-Python kernel.

On a shared machine the speed of one core changes by up to half as
neighbouring work comes and goes, often several times within a second;
every timing of the interpreter moves with it. The benchmark therefore times
a short kernel around each operation and reports the operation's time
scaled to the reference speed, at which the kernel takes `REFERENCE_S`:

    reported = measured * REFERENCE_S / kernel time during the call

The kernel runs three times just before and three times just after the
call, and, from a SIGALRM handler, every `PERIOD_S` inside it. A call long
enough to hold `MIN_INSIDE` of those runs is scaled by their mean, which
follows the speed over its whole duration; the time the handler took is
taken out of the measurement. A shorter call is scaled by the median of all
its runs. Timed on the same 2.5 s ``scan`` repeated thirty times on a
shared 2-vCPU Xeon VM, the spread (Q3 - Q1) / median was 0.045 with the
runs inside the call and 0.13 with only the runs around it (both with
the lighter kernel tried first).

The kernel imitates the package's inner loop (a `Fraction` built per
index, its ceiling and (0, 1] residue, a generator sum over branches), so
it slows down with the machine much as the package does; a lighter loop of
`Fraction` additions tracked the package's times less closely. It imports
nothing from the package, so a change to the package cannot change it. Raw
times are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002
PROBE_RUNS = 3
PERIOD_S = 0.05
MIN_INSIDE = 3


def kernel() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    total = 0
    for i in range(1, 120):
        v = Fraction(3 * i, 1009)
        residue = v - math.ceil(v) + 1
        g = sum((residue * k for k in (1, 2, 5)), Fraction(0))
        total += (math.ceil(g) - 1) * (i % 7) // 3
    return perf_counter() - start


def probe() -> list[float]:
    """PROBE_RUNS kernel timings taken now, after one run that refills the
    caches."""
    kernel()
    return [kernel() for _ in range(PROBE_RUNS)]


class Speed:
    """Times calls and scales them to the reference speed."""

    def __init__(self):
        self.on_tick = None         # called with the seconds each tick took
        self._inside: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()                    # the first run refills the caches
        self._inside.append(kernel())
        spent = perf_counter() - start
        self._spent += spent
        if self.on_tick is not None:
            self.on_tick(spent)

    @contextmanager
    def timed(self):
        """Times the block. The yielded dict gets ``raw`` (seconds, the
        handler's time taken out), ``scaled`` (at the reference speed) and
        ``kernel`` (the kernel time used to scale)."""
        around = probe()
        self._inside, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        result: dict = {}
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            yield result
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            around += probe()
            raw = elapsed - self._spent
            speed = (statistics.mean(self._inside) if len(self._inside) >= MIN_INSIDE
                     else statistics.median(around + self._inside))
            result.update(raw=raw, scaled=raw * REFERENCE_S / speed, kernel=speed)
