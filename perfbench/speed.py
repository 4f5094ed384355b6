"""The machine's speed, read from a fixed pure-Python reference loop.

On a shared virtual machine the same pure-Python work runs up to twice as
slowly for spells of seconds, and the guest sees no steal time: its CPU time
grows as fast as its wall time.  A timing is therefore scaled by how fast the
reference loop ran next to it.  ``Speed.scale(t0, t1)`` gives the factor
``REF_S / ref``, where ``ref`` is the mean of the last reading before ``t0``
and the first after ``t1``; readings next to a span track the machine's
speed better than a median over a wider window.  Scaled timings read as
wall time on a machine on which the reference loop takes ``REF_S``: a
change to the library moves them, a spell of slowness of the machine
mostly does not.
"""

from __future__ import annotations

import bisect
from time import perf_counter

# The reference loop's time on the 2-vCPU virtual machine (Python 3.11)
# the baseline was taken on, when it ran fastest.
REF_S = 0.65e-3
INTERVAL_S = 0.025  # at most this long between two reference readings


def _loop(n: int) -> dict:
    d: dict = {}
    for i in range(n):
        k = (i & 63, i & 7)
        d[k] = d.get(k, 0) + 1
    return d


def reference(rounds: int = 3) -> float:
    """Seconds for the reference loop: the fastest of ``rounds`` rounds."""
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        _loop(4000)
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Reference readings taken between timed spans of one process."""

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self.mark()

    def mark(self) -> None:
        ref = reference()
        self.at.append(perf_counter())
        self.ref.append(ref)

    def tick(self) -> None:
        """Take a reading if the last one is older than ``INTERVAL_S``."""
        if perf_counter() - self.at[-1] >= INTERVAL_S:
            self.mark()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a span from t0 to t1 that lies between two readings."""
        k = bisect.bisect_right(self.at, t0) - 1
        j = bisect.bisect_left(self.at, t1)
        return 2 * REF_S / (self.ref[k] + self.ref[j])
