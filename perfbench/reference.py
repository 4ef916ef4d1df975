"""A frozen reference kernel that measures how fast the machine runs while a
workload runs.

The benchmark's machine is a shared virtual host whose speed drifts: the same
fixed loop takes anywhere from one to two times its fastest time within a
minute, and the drift moves every kind of code by about as much.  A
workload's wall time therefore says as much about the neighbours as about
ebmix.  While a child runs its workload, a ``Sampler`` times a short slice of
this kernel every few tens of milliseconds; the slices' own time is taken out
of the workload's timings, and the driver scales those timings by
``NOMINAL_S / median slice time``.  A reported time thus reads as the seconds
the run would have taken had the kernel run at its nominal speed.

The kernel mixes the kinds of work ebmix's workloads spend their time on:
an element-wise Python loop over a NumPy array (the path transform), seeding
of Philox generators (per-replication streams), small matrix products (the
Markov mixing budget) and parsing text into floats (``read_values``).  It
depends only on Python and NumPy, never on ebmix, so a change to ebmix cannot
move it.  Do not change it: every timing of the benchmark is relative to it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The median time of one slice on a 2-vCPU x86-64 KVM guest.  Only the ratio
# of two runs matters; this constant keeps the unit seconds.
NOMINAL_S = 0.0025

_U = np.random.Generator(np.random.Philox(12345)).random(2000)
_P = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
_LINES = [repr(float(v)) for v in _U[:1000]]


def kernel() -> float:
    """One slice of the mixed kernel; returns a checksum so that no part can
    be skipped."""
    x = 0.0
    u = _U
    for t in range(len(u)):
        x = 0.5 * x + u[t]
    for i in range(20):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence([i, 7])))
        x += g.random(8)[0]
    m = _P
    for _ in range(250):
        m = m @ _P
    x += m[0, 0]
    x += np.asarray([float(s) for s in _LINES]).sum()
    return x


class Sampler:
    """Times one kernel slice ``interval`` seconds after the previous one
    while a workload runs, from a SIGALRM handler in the main thread.

    A slice takes about half of the interpreter's 5 ms thread switch
    interval, so a worker thread waiting for the GIL rarely cuts into it.
    ``samples`` holds the (start, end) of every slice; the time they took is
    taken out of the workload's own timings with ``paused``.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._active = False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))
        if self._active:
            # Re-armed only now, so that a slice never interrupts a slice.
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        kernel()  # untimed, so that the first slice finds everything loaded
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a run shorter than the interval
            self._tick(None, None)
        return False

    def paused(self, start: float, end: float) -> float:
        """Time spent in slices that began within [start, end)."""
        return sum(b - a for a, b in self.samples if start <= a < end)

    def slice_s(self) -> float:
        """Median slice time: how fast the machine ran during the run."""
        return statistics.median(b - a for a, b in self.samples)
