"""The machine's current speed, for scaling times measured in this process.

Shared machines change speed by up to 2x over seconds to minutes, which
swamps any change to rootflow.  A run therefore samples a fixed pure-Python
kernel, which uses no rootflow code, every REF_EVERY_NS.  An operation's
time is scaled by REF_NS over the kernel's mean time in the samples taken
just before, during and just after it, so scaled times read as if the
kernel took exactly REF_NS.  Samples only track work done in the process
that takes them, since a child process may run on another core at another
speed; so a child process samples itself.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array
from contextlib import contextmanager

REF_NS = 1_000_000
REF_ITERATIONS = 2_000
REF_REPEATS = 3  # a sample is the best of this many kernel runs
REF_EVERY_NS = 100_000_000

now = time.perf_counter_ns


def _newton_step(x: float, fx: float) -> float:
    return x - fx / ((2.0 - x) * math.exp(-x))


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like a solver loop: calls, floats, small tuples."""
    points = []
    x = 0.0
    for i in range(REF_ITERATIONS):
        fx = (x - 1.0) * math.exp(-x)
        x = _newton_step(x, fx) if i % 8 else 0.5 * (i % 3)
        points.append((i, x, fx))
    return len(points)


def _kernel_ns() -> int:
    t0 = now()
    reference_kernel()
    return now() - t0


class Speed:
    """Durations of ``reference_kernel`` sampled during a run: when each
    sample ended (``at``), the kernel's best time in it (``ns``) and how
    long the whole sample took (``took``)."""

    def __init__(self):
        self.at = array("q")
        self.ns = array("q")
        self.took = array("q")

    def sample(self) -> None:
        t0 = now()
        self.ns.append(min(_kernel_ns() for _ in range(REF_REPEATS)))
        self.at.append(now())
        self.took.append(self.at[-1] - t0)

    @contextmanager
    def sampling(self):
        """Sample at the start, every REF_EVERY_NS from a timer signal (so
        also inside long operations), and at the end of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        interval = REF_EVERY_NS / 1e9
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _inside(self, start: int, end: int) -> tuple[int, int]:
        return bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)

    def unsampled(self, start: int, end: int) -> int:
        """The ns between ``start`` and ``end`` not spent sampling."""
        i, j = self._inside(start, end)
        return end - start - sum(self.took[i:j])

    def scaled(self, start: int, end: int) -> float:
        """``unsampled(start, end)`` at reference speed.  The speed is the
        mean over the samples from the last one before ``start`` to the
        first one after ``end``."""
        i, j = self._inside(start, end)
        window = self.ns[max(i - 1, 0):min(j, len(self.ns) - 1) + 1]
        return self.unsampled(start, end) * REF_NS * len(window) / sum(window)
