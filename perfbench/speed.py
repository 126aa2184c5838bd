"""Machine-speed probe, for timings that hold still on a shared machine.

On a shared 2-core machine the speed of the same pure-Python work drifts
by a third over tens of seconds, which swamps the differences the
benchmark exists to find. While a `SpeedProbe` runs, an interval timer
interrupts the process every INTERVAL_S and times a fixed pure-Python
kernel (dictionary and integer work). `adjust` turns a
measured interval into seconds at the reference speed: the interval minus
the probes that ran inside it, scaled by PROBE_REFERENCE_S over the
interquartile mean of the probe times around it. Wall-clock budgets that
were spent in full (a solver that ran to its limit) do not scale with
speed and are passed as `fixed`, kept as they are.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.25
PROBE_REFERENCE_S = 0.003  # the kernel's time at the reference speed
NEIGHBOURHOOD_S = 2.0  # probes this close to an interval set its speed
MIN_PROBES = 4


def kernel() -> int:
    """Fixed dictionary and integer work. It creates no container objects
    in its loop, so it never triggers the cyclic garbage collector, whose
    pauses grow with refold's heap and would make the probe measure
    refold instead of the machine."""
    table: dict = {}
    total = 0
    for i in range(16000):
        key = i & 511
        table[key] = table.get(key, 0) + (i & 7)
        total ^= key
    return total


class SpeedProbe:
    def __init__(self):
        self.samples: list = []  # (start, end) of each probe, perf_counter

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """Reference probe time over the interquartile mean of the probe
        times within NEIGHBOURHOOD_S of [t0, t1], or of the MIN_PROBES
        nearest probes when fewer ran there."""
        near = [(s, e) for s, e in self.samples
                if s >= t0 - NEIGHBOURHOOD_S and e <= t1 + NEIGHBOURHOOD_S]
        if len(near) < MIN_PROBES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda p: abs((p[0] + p[1]) / 2 - mid))
            near = near[:MIN_PROBES]
        if not near:
            return 1.0
        times = sorted(e - s for s, e in near)
        k = len(times) // 4
        return PROBE_REFERENCE_S / statistics.fmean(times[k:len(times) - k])

    def adjust(self, t0: float, t1: float, fixed: float = 0.0) -> float:
        """Seconds of [t0, t1] at the reference speed. `fixed` seconds at
        the end of the interval are a wall-clock budget spent in full (the
        solver runs last in refactor(), before a short decode and verify);
        they are kept as they are and their probes do not set the speed."""
        inside = sum(e - s for s, e in self.samples if s >= t0 and e <= t1)
        work = max(t1 - t0 - inside - fixed, 0.0)
        return work * self.factor(t0, t1 - fixed) + fixed
