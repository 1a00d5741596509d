"""Host speed, sampled while a pass runs, to express times in reference
seconds.

The benchmark runs on shared machines whose speed changes from one second
to the next: a fixed pure-Python loop takes anywhere from 1x to 2x its
fastest time, in stretches of seconds to minutes.  Wall times taken on such
a host spread more from run to run than the changes they should show.  So
while a pass runs, a SIGALRM handler times a short fixed loop, the probe,
every SAMPLE_EVERY_S seconds.  An operation's wall time, less the time
spent in the handler, is scaled by REFERENCE_PROBE_S over the median probe
time around the operation: the time it would take on a host where the
probe takes REFERENCE_PROBE_S.

The probe uses the standard library alone, so a change to ``latticesums``
moves the operation times and not the probe.  The garbage collector is
off while the probe runs, so the size of the package's heap does not reach
the reading either.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List

# Median probe time on the machine the benchmark was written on (2-CPU
# x86-64 VM, Python 3.11) in its fast state.  It is only the unit: it
# cancels when two commits are compared on one host.
REFERENCE_PROBE_S = 0.0003
SAMPLE_EVERY_S = 0.02
NEAREST = 9   # probes behind a scale at least: the nearest ones in time


def probe() -> float:
    """One run of the fixed loop, in seconds: rational arithmetic, tuples
    and a dict, the kind of work the package does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 50):
            acc = acc * Fraction(i, i + 7) + Fraction(1, i)
            acc = Fraction(acc.numerator % 1000003,
                           acc.denominator % 1000003 or 1)
            key = (i % 17, i % 13)
            table[key] = table.get(key, 0) + i * i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_now() -> float:
    """REFERENCE_PROBE_S over the median of NEAREST probes run now."""
    return REFERENCE_PROBE_S / statistics.median(probe()
                                                 for _ in range(NEAREST))


class Sampler:
    """Probes the host every SAMPLE_EVERY_S seconds while it is entered.

    ``spent`` is the total time spent in the handler, which callers take
    off the wall time of what they measure."""

    def __init__(self):
        self.at: List[float] = []      # perf_counter() midpoint of a probe
        self.probe_s: List[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        seconds = probe()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.probe_s.append(seconds)
        self.spent += end - start

    def __enter__(self):
        for _ in range(NEAREST):  # so that the first operation has probes
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe time in [start, end],
        or over the NEAREST probes to its middle when fewer fell in it."""
        inside = [s for t, s in zip(self.at, self.probe_s)
                  if start <= t <= end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            order = sorted(range(len(self.at)),
                           key=lambda i: abs(self.at[i] - middle))
            inside = [self.probe_s[i] for i in order[:NEAREST]]
        return REFERENCE_PROBE_S / statistics.median(inside)
