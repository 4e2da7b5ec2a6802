"""A clock that reads time in units of a fixed probe loop.

The machine is a shared virtual machine.  Its speed flips between levels
that differ by up to a factor of two, within a second and in shares that
drift from minute to minute, and CPU time slows down with it.  So two
runs of the same code, minutes apart, read wall times up to a third
apart, however long they run.

`SpeedClock` reads the speed as it goes.  Every PERIOD_S an interval
timer interrupts the main thread, which runs a fixed probe loop of
`Fraction` arithmetic and records how long it took.  The stretch of work
before each tick is divided by that tick's probe time.  This gives the
work in probe-loop units, which slow down with the machine as the
program does; the probes' own time is left out.  A unit is reported as
PROBE_S seconds, the time the probe takes when the machine runs at its
best speed, so a reading is close to the wall time the work takes then.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
# The fastest probe seen on the machine behind the reference figures in
# README.md (a 2-vCPU Intel Xeon VM, Python 3.11).  It sets the scale only.
PROBE_S = 170e-6


def _probe() -> Fraction:
    # Fraction work, not a plain integer loop: over runs minutes apart, op
    # times read in units of an integer loop still spread by a fifth, while
    # in units of this probe they keep within a few per cent, on the exact
    # and on the numeric workloads alike.
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    return s


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []
        self.ticks: list[tuple[float, float, float]] = []  # start, probe s, end

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        a = time.perf_counter()
        _probe()
        b = time.perf_counter()
        self.starts.append(a)
        self.ticks.append((a, b - a, b))

    def seconds(self, t0: float, t1: float) -> float:
        """The work between perf_counter readings t0 and t1, in PROBE_S units.

        Each stretch between ticks is divided by the probe time of the
        tick that ends it; the last one by the first tick after t1, or by
        the last tick if none has come yet.
        """
        if not self.ticks:
            raise RuntimeError("the speed clock has not ticked")
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        at = max(t0, self.ticks[i - 1][2]) if i else t0
        units = 0.0
        for a, probe, b in self.ticks[i:j]:
            units += max(a - at, 0.0) / probe
            at = b
        units += max(t1 - at, 0.0) / self.ticks[min(j, len(self.ticks) - 1)][1]
        return units * PROBE_S
