"""A fixed reference loop that tracks the host's current speed.

On the 2-vCPU Intel Xeon host of the baseline in README.md, speed drifts by
up to 1.8x over minutes and by tens of percent within a second, with CPU time
equal to wall time, so raw seconds from separate processes are not
comparable.  While a pass runs, :class:`SpeedMeter` interrupts the program
every :data:`TICK_S` seconds (``SIGALRM``) to time one short chunk of this
loop.  Each case's time, minus the ticks inside it, is then scaled to a host
on which a chunk takes :data:`NOMINAL_CHUNK_S`:

    ref_seconds = seconds * NOMINAL_CHUNK_S / mean(chunk times during the case)

Sampling during the case matters: one L-shape case repeated 14 times varied
by 7.4 % (coefficient of variation) raw, 10 % when scaled by loops run just
before and after it, and 2.8 % when scaled by the ticks inside it.

The loop does what the package's hot paths do -- pure-Python float and tuple
arithmetic, `math` calls, attribute reads and binary searches -- and uses
nothing from `escobar`, so a change to the package cannot change it.  It
imports nothing the package imports, so a set-up probe can time it before
the set-up.  Raw seconds are recorded beside the scaled ones.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

#: Nominal time of one chunk (its time on the host above at its faster speed).
NOMINAL_CHUNK_S = 0.0008
#: Interval between two chunks while a :class:`SpeedMeter` runs.
TICK_S = 0.05

_CHUNK_REPS = 12


class _Edge:
    __slots__ = ("start", "end")

    def __init__(self, start, end):
        self.start = start
        self.end = end


_POLY = [
    (math.cos(2 * math.pi * i / 12) * (1.0 + 0.3 * (i % 2)),
     math.sin(2 * math.pi * i / 12) * (1.0 + 0.3 * (i % 2)))
    for i in range(12)
]
_EDGES = [_Edge(_POLY[i], _POLY[(i + 1) % 12]) for i in range(12)]
_CUM = list(accumulate((math.dist(e.start, e.end) for e in _EDGES), initial=0.0))
_QUERIES = [(0.9 * math.cos(0.37 * j), 0.9 * math.sin(0.53 * j)) for j in range(40)]


def _inside(p) -> bool:
    count = 0
    for e in _EDGES:
        (x0, y0), (x1, y1) = e.start, e.end
        if (y0 > p[1]) != (y1 > p[1]):
            if x0 + (p[1] - y0) * (x1 - x0) / (y1 - y0) > p[0]:
                count += 1
    return count % 2 == 1


def _chunk() -> float:
    acc = 0.0
    for _ in range(_CHUNK_REPS):
        for j, q in enumerate(_QUERIES):
            acc += _inside(q)
            i = bisect_right(_CUM, (j * 0.17) % _CUM[-1]) - 1
            acc += i + math.hypot(q[0] - _POLY[i][0], q[1] - _POLY[i][1])
        acc += math.fsum(x + y for x, y in _QUERIES)
    return acc


def chunk_seconds() -> float:
    """Seconds one chunk of the reference loop takes right now."""
    t0 = time.perf_counter()
    _chunk()
    return time.perf_counter() - t0


class SpeedMeter:
    """Times a reference chunk every :data:`TICK_S` seconds while entered.

    Only the main thread may enter it (Python runs signal handlers there).
    """

    def __init__(self):
        self._starts: list[float] = []
        self._seconds: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self._starts.append(time.perf_counter())
        self._seconds.append(chunk_seconds())

    def __enter__(self) -> "SpeedMeter":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, start: float, seconds: float) -> tuple[float, float]:
        """Raw and reference seconds of the interval ``[start, start + seconds]``.

        Ticks inside the interval are taken out of it and give its speed; an
        interval too short to hold a tick uses the ticks just before and after.
        """
        lo = bisect_left(self._starts, start)
        hi = bisect_left(self._starts, start + seconds)
        inside = self._seconds[lo:hi]
        raw = seconds - sum(inside)
        speed = inside or self._seconds[max(lo - 1, 0):hi + 1]
        return raw, raw * NOMINAL_CHUNK_S * len(speed) / sum(speed)
