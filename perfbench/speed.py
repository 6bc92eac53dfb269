"""Host speed sampling, to correct timings for a shared host's drift.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.5x from one second to the next (other tenants on the same
physical cores), and so does every timing taken on it.  A ``Sampler``
measures that speed while a job runs: a timer signal interrupts the job
every ``INTERVAL_S`` seconds of wall time and times a fixed slice of pure
Python work.  ``reference_seconds`` subtracts the slices from the job's
wall time and scales the rest by the speed the slices saw, giving the
seconds the job would have taken at the speed at which one slice takes
``REF_SLICE_S``.  A change to the program moves that figure as much as it
moves the wall time; a change in the host's speed during the job does not.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.05
SLICE_LOOPS = 8000
# Seconds one slice takes at the reference speed: about what it takes inside
# a job on a 2-vCPU x86-64 VM at its least contended, with Python 3.11, so
# that figures read close to that host's best wall seconds.
REF_SLICE_S = 0.0012


def _slice():
    """Fixed pure Python work: integer arithmetic and list stores.  It
    makes one object the garbage collector tracks, and runs with the
    collector off, so its time does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        buf = [0] * 1024
        x = 1
        for i in range(SLICE_LOOPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            buf[i & 1023] = x
        return x
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a slice every INTERVAL_S while armed, and one at ``stop``.
    Each slice is kept as (start time, duration, seconds since the
    previous slice or ``start``)."""

    def __init__(self):
        self.slices = []
        self._since = None
        self._previous = None

    def _take(self, *_):
        t0 = time.perf_counter()
        _slice()
        t1 = time.perf_counter()
        self.slices.append((t0, t1 - t0, t0 - self._since))
        self._since = t1

    def start(self):
        self.slices = []
        self._since = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def speed(self):
        """Host speed, 1.0 being the reference: the speed each slice saw,
        weighted by the seconds since the slice before it, so that a long
        stretch without slices (one long call into numpy) counts for its
        length."""
        return (sum(gap * REF_SLICE_S / dt for _, dt, gap in self.slices)
                / sum(gap for _, _, gap in self.slices))

    def busy(self, t0, t1):
        """Seconds spent in slices begun between perf_counter readings t0
        and t1."""
        return sum(dt for ts, dt, _ in self.slices if t0 <= ts < t1)

    def reference_seconds(self, t0, t1):
        """Seconds between perf_counter readings t0 and t1, without the
        slices taken inside them, at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.speed()
