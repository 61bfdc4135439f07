"""A fixed piece of pure-Python work, timed next to every measured call.

The shared 2-core machine the benchmark was built on changes speed by up to
2x, for stretches of a few seconds to minutes, and CPU time slows with wall
time, so no statistic over one run removes it.  The reference work slows
with the program: next to calls of five inputs from the four workloads,
timed in 6 s windows over 100 s, call times varied by 11-14% between
windows (standard deviation over mean) and their ratio to the reference by
2-5%.  The time metrics therefore report each call in units of the
reference work timed beside it and, every 100 ms, inside it (``Pacer``),
scaled to ``REFERENCE_MS``, the reference's time at the machine's fast
speed.  The reference code is the benchmark's own and never changes with
cycproof, so a faster program still shows as a smaller ratio.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# The reference work's time at the fast speed of the machine above (x86-64,
# Python 3.11.7); only the unit of the reported times depends on it.
REFERENCE_MS = 0.42


def _calls(n: int) -> int:
    return n if n < 2 else _calls(n - 1) + _calls(n - 2)


def _work() -> int:
    # big-integer arithmetic, small tuples hashed into a set, recursive calls:
    # across the machine's speeds, program time grew as this work's time to
    # the power 0.75-1.04 per input, but only as the time of dict, str and
    # small-container work to the power 0.60-0.85, so that work is left out
    x = 3
    for i in range(1000):
        x = (x * 2 + i) % (1 << 200)
    seen = set()
    for i in range(800):
        seen.add((i % 13, (i % 5, "v"), i % 3))
    return x + len(seen) + _calls(14)


def reference_seconds() -> float:
    """Seconds the reference work takes now: the fastest of three runs, so
    that an interrupt in one does not count.  The cyclic collector is off
    while it runs, so that the program's live heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        fastest = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            _work()
            fastest = min(fastest, time.perf_counter() - started)
        return fastest
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings, in seconds at the
    reference speed."""
    return seconds * (REFERENCE_MS / 1000) / ((before + after) / 2)


class Pacer:
    """Times the reference work on request and, from a timer signal, every
    ``interval`` seconds, also in the middle of a call, so that a call during
    which the machine changes speed is scaled piece by piece.

    Use as a context manager; ``mark()`` before and after each call, then
    ``split(start, end)`` for the call's time.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.starts: list = []  # start of each timing, in perf_counter() time
        self.marks: list = []  # (start, end, reference seconds) of each timing
        self.busy = False
        self.previous = None

    def __enter__(self) -> "Pacer":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, *_) -> None:
        if not self.busy:  # the timer fired inside a timing: skip it
            self.mark()

    def mark(self) -> None:
        self.busy = True
        try:
            start = time.perf_counter()
            seconds = reference_seconds()
            self.starts.append(start)
            self.marks.append((start, time.perf_counter(), seconds))
        finally:
            self.busy = False

    def split(self, start: float, end: float) -> tuple:
        """(seconds, seconds at the reference speed) from ``start`` to
        ``end``, without the timings inside; a mark must end at or before
        ``start`` and one begin at or after ``end``."""
        first = bisect.bisect_right(self.starts, start) - 1
        last = bisect.bisect_left(self.starts, end)
        inside = self.marks[first + 1:last]
        edges = [start] + [t for s, e, _ in inside for t in (s, e)] + [end]
        refs = [m[2] for m in self.marks[first:last + 1]]
        raw = scaled = 0.0
        for i in range(len(refs) - 1):
            piece = edges[2 * i + 1] - edges[2 * i]
            raw += piece
            scaled += scale(piece, refs[i], refs[i + 1])
        return raw, scaled
