"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared host the same Python code runs up to a third slower for
seconds or minutes at a time, and every permrf call slows by the same
factor.  The benchmark times this loop next to the work it measures and
reports times scaled to a machine on which the loop takes REF_SECONDS:
scaled = measured * REF_SECONDS / loop time.  The loop is the benchmark's
own code, so a change to permrf cannot move it.
"""

import statistics
import time

REF_SECONDS = 0.003
EVERY_SECONDS = 0.25
LOOP_ITERATIONS = 20000

# GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1: the kind of table lookups,
# calls and small-int arithmetic permrf spends its time on.
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D


def _mul(a, b, exp=_EXP, log=_LOG):
    if a == 0 or b == 0:
        return 0
    return exp[log[a] + log[b]]


def _loop(n=LOOP_ITERATIONS):
    acc, total = 1, 0
    for i in range(n):
        acc = _mul(acc, (i & 0xFF) | 1)
        total += acc % 7
    return total


class Pace:
    """Loop times taken during one stretch of work (a round or a set-up)."""

    def __init__(self):
        self.samples = []
        self._last = None

    def measure(self):
        t0 = time.perf_counter()
        _loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_measure(self):
        """Measure when EVERY_SECONDS have passed since the last measurement."""
        if self._last is None or time.perf_counter() - self._last >= EVERY_SECONDS:
            self.measure()

    def scale(self, mark=None):
        """Factor that turns measured seconds into scaled ones: from the
        median of all samples, or from samples mark and mark + 1, which
        bracket the work timed between them."""
        if mark is None:
            return REF_SECONDS / statistics.median(self.samples)
        return 2 * REF_SECONDS / (self.samples[mark] + self.samples[mark + 1])
