"""Machine speed, measured with a fixed reference kernel.

A shared host runs the same computation up to 1.7x faster or slower
from one minute to the next, so a raw latency measures the host as much
as the program.  The benchmark times this kernel before and after every
sample, and every PROBE_EVERY_S while a long sample runs, and scales the
sample by how fast the kernel ran meanwhile:

    scaled = latency * REFERENCE_S / mean kernel time

which is the latency on a machine where the kernel takes REFERENCE_S.
The kernel never calls the program, so a change to the program moves
the scaled times exactly as it moves the raw ones.  It does the work
the program does most (Fraction arithmetic, tuple keys in dicts, small
integer loops), so the host slows both down alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The kernel's time on the reference machine, a 2-vCPU "Intel(R)
# Xeon(R) Processor" VM (Python 3.11.7), at its usual speed.  It only
# fixes the unit: scaled times are seconds on a machine this fast.
REFERENCE_S = 0.004
PROBE_EVERY_S = 0.25
_ROUNDS = 700
_TURNS = tuple(Fraction(1, d) for d in (2, 3, 4, 6, 8, 12))


def kernel() -> int:
    table: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for i in range(_ROUNDS):
        key = (i % 37, (i * 7) % 11, i & 3)
        turn = (table.get(key, total) + _TURNS[i % 6]) % 1
        table[key] = turn
        if i % 5 == 0:
            total = (total + turn) % 1
    return len(table) + total.denominator


def kernel_time() -> float:
    """Seconds the kernel takes now: the median of three runs, so that
    one interrupt does not skew the samples scaled by it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def scale(latency: float, kernel_times: list[float]) -> float:
    """``latency`` on the reference machine, given the kernel times
    measured around and during it."""
    return latency * REFERENCE_S / statistics.fmean(kernel_times)


class Probe:
    """Kernel times around and during one sample at a time.

    ``start`` and ``disarm`` bracket the timed call; in between, a
    SIGALRM handler times the kernel every PROBE_EVERY_S (unless the
    probe is made with ``during=False``) and adds the time it took to
    ``spent``, which the caller takes off the latency.  ``finish`` times
    the kernel after the sample, which is also the time before the next
    one, and returns the kernel times that scale the sample."""

    def __init__(self, during: bool = True):
        self.during = during
        self.last = kernel_time()
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(kernel_time())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.times = [self.last]
        self.spent = 0.0
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def finish(self) -> list[float]:
        self.last = kernel_time()
        self.times.append(self.last)
        return self.times
