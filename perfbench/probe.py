"""Machine-speed probe: how fast this machine runs a fixed reference loop now.

The machine this benchmark was written on, a virtual machine with two Xeon
vCPUs, shares its cores with other tenants, and its speed drifts by 15 to
50 % over seconds to minutes (a pure Python loop timed in 5 s windows ranged
from 16 to 22 ms).  Raw wall times of identical runs spread too far to
bound a regression.  The probe times a small fixed loop of the same kind of
work (Fraction arithmetic and tuple-keyed dict updates) every PERIOD seconds
while a worker runs, from a SIGALRM handler, so it samples the machine's
speed across each phase.
``scale`` is the mean of REFERENCE_S / probe time: the factor that converts
seconds measured now into seconds at the reference speed.  Each probe is
timed twice, in wall time and in the process's CPU time, so that CPU time
is scaled by the probe's CPU time: time stolen by the host slows the probe's
wall time but not the CPU time of either.  The loop does not depend on
rclab, so a faster rclab still shows as a smaller scaled time.

Garbage collection is paused during each probe, so the probe's allocations
neither trigger a collection of the program's heap nor get charged for one.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1           # seconds between probes during a timed phase
REFERENCE_S = 1e-3     # probe time that defines the reference speed


def reference_loop():
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i
    return acc


def time_probe():
    """(wall seconds, CPU seconds) of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


def scale(samples, clock: int = 0) -> float:
    """Mean of REFERENCE_S / probe time; ``clock`` 0 is wall time, 1 is CPU time."""
    return statistics.fmean(REFERENCE_S / max(s[clock], 1e-9) for s in samples)


class PeriodicProbe:
    """Probes every PERIOD seconds between ``start`` and ``stop``.

    ``mark`` takes a probe now and returns its index, so that the samples
    of one phase are ``samples[mark_a:mark_b + 1]``.
    """

    def __init__(self):
        self.samples = []

    def mark(self) -> int:
        self.samples.append(time_probe())
        return len(self.samples) - 1

    def _on_alarm(self, signum, frame):
        self.samples.append(time_probe())

    def start(self):
        self.samples.append(time_probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_probe())
