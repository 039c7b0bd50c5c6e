"""Host-speed probe: scales a run's timings to a fixed speed of the host.

Shared machines drift in speed by tens of percent; on the 2-core VM this
benchmark was written on, a fixed loop ran between 1.0 and 1.8 times its
fastest time from one minute to the next, and CPU time drifted with wall
time.  While a run measures, an interval timer interrupts the measuring
thread every ``PERIOD_S`` of wall time and times a fixed piece of Python and
NumPy work of well under a millisecond, the kind of work dualrail's hot paths
do, in CPU time.  The run divides its timings by ``factor``, which removes
the host's drift and keeps the program's own speed: a change to dualrail does
not change the probe.

The host's speed flips between a fast and a slow state (probe times cluster
near 0.65 and 0.95 ms), and a pass's time is the integral of its work over
that speed.  Samples taken at even intervals of wall time estimate the mean
speed as the mean of 1 / probe time, so ``factor`` is the harmonic mean of
the probe times over ``REFERENCE_S``; the median follows only the state that
holds more than half the time.  The probe runs in the thread it measures
for, so it sees the state of the core that thread runs on; a helper process
on the other core did not always see it.

The probe takes 1-2% of the measuring thread's time, the same share on every
commit.  It counts its own CPU time, so its reading does not depend on how
many processes run beside it (0, 1 and 2 busy processes on the two cores read
the same, to the host's drift), and removing the CLI's process pools, for
one, does not move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
# Probe CPU time in the host's fast state; it only sets the scale of the
# metrics, which read as times on a host that stays in that state.
REFERENCE_S = 0.65e-3


def probe_work() -> float:
    total = 0.0
    for i in range(7000):
        total += i * 0.5
    values = np.linspace(0.0, 1.0, 64)
    for _ in range(140):
        values = np.sqrt(values * values + 1.0)
    return total + float(values[0])


class SpeedProbe:
    """Samples the host's speed while ``running``, one probe time per tick.

    Runs in the main thread from a SIGALRM handler, so ``running`` must be
    entered there; it restores the previous handler and timer on exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        probe_work()
        self.samples.append(time.thread_time() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def factor(samples: list[float]) -> float:
    """How much slower than the reference the host ran while ``samples``
    were taken: their harmonic mean over ``REFERENCE_S``."""
    return statistics.harmonic_mean(samples) / REFERENCE_S
