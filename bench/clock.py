"""Op times scaled to a reference interpreter speed.

On a shared host the speed of pure-Python code changes by half for tens of
seconds at a time: on a 2-vCPU Xeon VM a fixed loop took 6.5 ms in one stretch
and 10.5 ms in the next, in CPU time as much as in wall time.  The program's
ops slow down with it, so raw wall times of whole runs differed by up to 1.4x.
A ``Clock`` therefore runs a fixed calibration kernel in short bursts between
ops (one burst before the first op, and one after any op that ends at least
``interval_s`` after the last burst), and scales each op's wall time by
``REFERENCE_S`` over the mean kernel time of the bursts just before and just
after it.  A scaled time reads as the op's time on a host where the kernel
takes ``REFERENCE_S``, which is about its time on that VM in its fast
stretches.  The bursts are never inside a timed op.

The host's speed also changes within tenths of a second.  That does not
matter for ops of milliseconds among many others, but the cli workload's
median op takes 1.5 ms, so it bursts after every op (``interval_s`` 0, about
40 ms per pass): over 12 passes of one draw, the IQR over median of a pass's
p50 was 0.04 to 0.09 with a burst after every op, 0.13 to 0.19 with bursts
0.1 s apart, and 0.34 to 0.42 unscaled.

A change to the program moves its ops but not the kernel, so it shows in the
scaled times in full.  A host slowdown moves both and cancels, to the extent
that it slows the kernel and the program alike: over runs of 15 to 20 s on
that VM the scaled pass times of sweep, periods and traces moved by 2% to 6%
where the wall times moved by 13% to 42%.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_S = 0.0004
INTERVAL_S = 0.1
BURST = 3  # kernel runs per burst; the burst reports their median


def kernel() -> int:
    """Fixed interpreter work: tuple keys in a dict, small-int arithmetic, a
    growing list and big-int products, as in the package's exact counting."""
    table: dict = {}
    acc, keys = 1, []
    for i in range(1500):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
        keys.append(key)
    big = 3**400
    for i in range(60):
        big = big * 7 // 5 + i
    return acc + len(table) + len(keys) + big % 7


def burst() -> float:
    """The median time of ``BURST`` runs of the kernel."""
    times = []
    for _ in range(BURST):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


kernel()  # the first run of a fresh interpreter warms up its bytecode


class Clock:
    """Times ops one after the other; ``scaled`` gives their reference times."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.raw: list[float] = []  # wall seconds per op
        self._starts: list[float] = []
        self._bursts: list[tuple[float, float]] = []  # (when it ended, kernel seconds)
        self._burst()

    def _burst(self) -> None:
        seconds = burst()
        self._bursts.append((perf_counter(), seconds))

    def start(self) -> float:
        return perf_counter()

    def stop(self, start: float) -> None:
        end = perf_counter()
        self._starts.append(start)
        self.raw.append(end - start)
        if end - self._bursts[-1][0] >= self.interval_s:
            self._burst()

    def scaled(self) -> list[float]:
        """Each op's wall time times REFERENCE_S over the mean kernel time of
        the bursts around it.  Call it after the last op."""
        if self._starts and self._starts[-1] > self._bursts[-1][0]:
            self._burst()
        ends = [when for when, _ in self._bursts]
        out = []
        for start, seconds in zip(self._starts, self.raw):
            after = bisect.bisect_right(ends, start)
            kernel_s = (self._bursts[after - 1][1] + self._bursts[after][1]) / 2
            out.append(seconds * REFERENCE_S / kernel_s)
        return out


def scale_once(seconds: float, before: float, after: float) -> float:
    """A single timed span between two bursts, scaled like an op."""
    return seconds * REFERENCE_S / ((before + after) / 2)
