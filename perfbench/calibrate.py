"""Reference-speed clock for a host whose speed drifts.

On a host that shares its cores with other machines, the same Python code
runs up to half again slower from one minute to the next. The ratio of an
operation's wall time to the time of a fixed calibration task measured
during it stays much steadier. So timings are reported in reference
seconds: wall seconds x ``REFERENCE_S`` / the mean calibration time during
the interval (interpolated from the nearest calibrations when none fell
inside it). On a host at the reference speed, reference seconds are wall
seconds.

The calibration task is shaped like the solver's absorption step (sort
20,000 integer bitmasks by popcount, then bucket them by low bits; twice), because a small, cache-resident loop slows down far more than the
workloads do when the host is contended. While sampling, a timer signal
runs it about once a second, also in the middle of an operation, whose
time then excludes it.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time
from typing import Iterator

CALIBRATION_MASKS = 20_000
CALIBRATION_PASSES = 2  # two small passes rather than one large: less memory at once
INTERVAL_S = 1.0
# About the calibration time on the 2-core x86-64 host, Python 3.11, on
# which the benchmark was defined, while that host was not contended
# (35-44 ms measured).
REFERENCE_S = 0.041


class ReferenceClock:
    """Calibrations taken through a run, and wall-to-reference conversion."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.masks = [rng.getrandbits(40) for _ in range(CALIBRATION_MASKS)]
        self.starts: list[float] = []
        self.ends: list[float] = []

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def calibrate(self) -> None:
        """Time the calibration task once."""
        start = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            buckets: dict[int, list[int]] = {}
            for mask in sorted(set(self.masks), key=lambda m: (m.bit_count(), m)):
                buckets.setdefault(mask & 0xFFF, []).append(mask)
            del buckets
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Calibrate every ``INTERVAL_S`` seconds, interrupting whatever runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def held(self) -> Iterator[None]:
        """Defer calibrations until the block ends (for traced operations)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def convert(self, start: float, end: float) -> tuple[float, float]:
        """(Wall seconds of the interval without the calibrations inside it,
        reference seconds per wall second during it)."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = [self.ends[i] - self.starts[i] for i in range(first, last)]
        if inside:
            duration = statistics.fmean(inside)
        else:
            duration = self._interpolate((start + end) / 2)
        return end - start - sum(inside), REFERENCE_S / duration

    def _interpolate(self, at: float) -> float:
        mids = [(s + e) / 2 for s, e in zip(self.starts, self.ends)]
        durations = self.durations
        i = bisect.bisect_left(mids, at)
        if i == 0:
            return durations[0]
        if i == len(mids):
            return durations[-1]
        t0, t1 = mids[i - 1], mids[i]
        return durations[i - 1] + (durations[i] - durations[i - 1]) * (at - t0) / (t1 - t0)
