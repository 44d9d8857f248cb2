"""A fixed stdlib reference loop that tracks the machine's momentary speed.

Wall-clock speed of the same Python work drifts by up to about 1.6x on small
shared machines, over periods from one to tens of seconds, and CPU time drifts
with it.  The benchmark therefore samples this loop between ops (it uses no
invset code, so a change to invset cannot move it) and scales each op's wall
time by ``REF_MS`` over the median time of the samples nearest that op: the
reported times are what the op would take on a machine where the loop takes
``REF_MS`` milliseconds.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

REF_MS = 1.0
NEAREST = 10  # samples that set the speed at one instant


def reference_work():
    """About a millisecond of the kinds of work invset does: dyadic Fraction
    arithmetic, a bit-by-bit string build, JSON and hashing."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(k % 7, 1 << (k % 11)) * Fraction(3, 4)
    bits = (1 << 2048) // 3
    text = "".join("1" if (bits >> j) & 1 else "0" for j in range(1024))
    doc = json.dumps([{"left": f"{k}/{k + 7}", "path": [k % 3, k % 5]} for k in range(100)], sort_keys=True)
    return hashlib.sha256(text.encode() + doc.encode()).digest(), total


class SpeedProbe:
    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # its wall seconds

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            reference_work()
            self.at.append(start)
            self.took.append(perf_counter() - start)

    def scale(self, when: float) -> float:
        """Factor that turns a wall time measured at ``when`` into a time at
        reference speed."""
        i = bisect_left(self.at, when)
        nearest = self.took[max(0, i - NEAREST // 2): i + NEAREST // 2]
        return REF_MS * 1e-3 / statistics.median(nearest)

    def median_ms(self) -> float:
        return statistics.median(self.took) * 1e3
