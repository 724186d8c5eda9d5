"""The host's speed, sampled while the benchmark's work runs.

On a 2-core x86 VM the host's speed changes by tens of percent within a
fraction of a second: a fixed 5 ms loop run just before and just after a
0.2-1 s operation differs by 6-9% at the median and by 20-30% at the upper
quartile.  So a reference run on either side of an operation is a poor
estimate of the speed the operation ran at; a sample inside it is better.

While a ``SpeedClock`` is entered, a SIGALRM every SAMPLE_EVERY_S runs
sample_work(), a fixed stdlib loop of the kind linkchi spends its time in,
twice, and records how long the second run took.  ``SpeedClock.run`` reports a call's wall
time less the time spent in samples, and the host's speed during the call:
the mean of SAMPLE_REFERENCE_S / duration over the samples taken inside it
and one on either side.  Wall time times speed is the time the call would
take on a host that runs sample_work() in SAMPLE_REFERENCE_S, about that
VM's speed.  On that VM, over five seeds of selfcheck, it cut the quartile
spread of op_s.p50 from 0.12 (a 5 ms reference run on either side of each
operation) to 0.03.  The sample never changes with linkchi, so a change to
the library moves these times in full, up to the few percent by which the
duration of a sample depends on what it interrupted (0.96-1.12 times that
of an uninterrupted sample, by workload, on that VM).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.01
# About the median duration of a sample (the second sample_work()) on a
# 2-core x86 VM.
SAMPLE_REFERENCE_S = 0.0003


def sample_work() -> int:
    """Fixed work: tuple-keyed dict updates with Fraction sums.

    Never change it: it is the unit of every reported timing.
    """
    acc = {}
    for i in range(100):
        key = (i % 7, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    return len(acc)


def speed_of(durations) -> float:
    """Mean speed relative to the reference over sample durations."""
    return sum(SAMPLE_REFERENCE_S / d for d in durations) / len(durations)


class SpeedClock:
    """Samples the host's speed while entered; ``run`` times one call."""

    def __init__(self):
        self.durations: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> float:
        """Run sample_work() twice and record the second run's duration.

        The first run warms the caches that the interrupted code has
        filled with its own data, so the sample measures the host rather
        than the state linkchi left behind.  Returns the time of both.
        """
        self._busy = True
        try:
            start = time.perf_counter()
            sample_work()
            middle = time.perf_counter()
            sample_work()
            end = time.perf_counter()
        finally:
            self._busy = False
        self.durations.append(end - middle)
        return end - start

    def _on_alarm(self, signum, frame):
        if not self._busy:  # an alarm due during a sample is dropped
            self._spent += self._sample()

    def run(self, fn):
        """(wall seconds less sampling, speed during the call, fn())."""
        first = len(self.durations)
        self._sample()
        start = time.perf_counter()
        spent = self._spent
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start - (self._spent - spent)
            self._sample()
        return wall, speed_of(self.durations[first:]), result
