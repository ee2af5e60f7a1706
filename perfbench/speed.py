"""Correct timed regions for the speed of a shared machine.

On a shared virtual machine the same code can run up to twice as slowly for
seconds at a time, because other guests load the same cores; a pass of a few
seconds then reads 20% slower or faster from one run to the next, which no
number of passes in a 20-second run averages away.

While a `SpeedProbe` is active, a SIGALRM handler runs every `PERIOD_S`
seconds and times one of `PARTS` in turn: fixed slivers of the kinds of
arithmetic hornsing spends its time in, written here so that no change to
hornsing changes them.  The sum over the parts of their mean times in a
region measures the machine's speed during the region, and `at_reference`
rescales the region's own time (probe time removed) to the speed at which
that sum is `REF_PROBE_S`.  In one process cycling through the workloads
while their raw pass times varied by 20%, the rescaled pass times varied by
about 2%.  The handler takes about 4% of the region's time, which is
removed.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# the sum of the parts' mean times on the 2-vCPU x86-64 virtual machine the
# benchmark was defined on (Python 3.11.7) while its passes ran fastest, so
# that reference-speed times there read close to the raw ones
REF_PROBE_S = 0.002

_SMALL = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
_BIG = [Fraction(10**40 + 7 * i, 10**38 + 3 * i + 1) for i in range(12)]
_P = 2**61 - 1
_PIVOT = [(7919 * j + 104729) % _P for j in range(48)]
_TARGET = [(104723 * j + 7907) % _P for j in range(48)]


def _sparse_product():
    """A product of sparse polynomials with small Fraction coefficients."""
    out = {}
    for e1, c1 in _SMALL.items():
        for e2, c2 in _SMALL.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _big_fractions():
    """Sums of products of Fractions with 40-digit terms."""
    total = Fraction(0)
    for x in _BIG:
        for y in _BIG[:6]:
            total += x * y
    return total


def _row_updates():
    """Row updates modulo a 61-bit prime, as in mod-p elimination."""
    row, f = _TARGET, _PIVOT[0]
    for _ in range(80):
        row = [(a - f * b) % _P for a, b in zip(row, _PIVOT)]
    return row


PARTS = (_sparse_product, _big_fractions, _row_updates)


class SpeedProbe:
    """Context manager that samples (part index, seconds) while it is active."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        part = len(self.samples) % len(PARTS)
        # a collection of the program's heap must not land inside a sample
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        PARTS[part]()
        self.samples.append((part, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_reference(self, first, elapsed):
        """Seconds the region that began at sample `first` takes at reference speed."""
        return at_reference(elapsed, self.samples[first:])


def at_reference(elapsed, samples):
    """Rescale a region's wall time, which includes its probe samples.

    A region too short to sample every part is returned unscaled.
    """
    per_part = [[t for part, t in samples if part == i] for i in range(len(PARTS))]
    if not all(per_part):
        return elapsed
    probe_s = sum(t for _, t in samples)
    return (elapsed - probe_s) * REF_PROBE_S / sum(statistics.fmean(p) for p in per_part)
