"""The speed clock's arithmetic, on ticks set by hand, and its timer.

    python3 -m pytest perfbench/test_speedclock.py
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speedclock import PROBE_S, SpeedClock  # noqa: E402


def clock_with(ticks) -> SpeedClock:
    clock = SpeedClock()
    clock.ticks = list(ticks)
    clock.starts = [a for a, _, _ in ticks]
    return clock


class TestSeconds(unittest.TestCase):
    def test_stretches_divided_by_the_tick_that_ends_them(self):
        p1, p2 = 2 * PROBE_S, 4 * PROBE_S
        clock = clock_with([(1.0, p1, 1.1), (2.0, p2, 2.1)])
        # 0.5 s before the first tick at half speed, then 0.9 s and a last
        # 0.4 s at a quarter speed; the ticks' own 0.2 s is left out
        self.assertAlmostEqual(clock.seconds(0.5, 2.5), 0.5 / 2 + 1.3 / 4)

    def test_best_speed_reads_wall_time(self):
        clock = clock_with([(1.0, PROBE_S, 1.0), (2.0, PROBE_S, 2.0)])
        self.assertAlmostEqual(clock.seconds(0.25, 1.75), 1.5)

    def test_window_that_starts_inside_a_tick(self):
        clock = clock_with([(1.0, PROBE_S, 1.1), (2.0, 2 * PROBE_S, 2.1)])
        self.assertAlmostEqual(clock.seconds(1.05, 1.5), 0.4 / 2)

    def test_window_after_the_last_tick(self):
        clock = clock_with([(1.0, 2 * PROBE_S, 1.1)])
        self.assertAlmostEqual(clock.seconds(3.0, 4.0), 0.5)

    def test_no_ticks(self):
        with self.assertRaises(RuntimeError):
            SpeedClock().seconds(0.0, 1.0)


class TestTimer(unittest.TestCase):
    def test_ticks_while_busy_and_stops(self):
        clock = SpeedClock()
        clock.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass
            t1 = time.perf_counter()
        finally:
            clock.stop()
        self.assertGreater(len(clock.ticks), 5)
        self.assertGreater(clock.seconds(t0, t1), 0.0)
        n = len(clock.ticks)
        time.sleep(0.05)
        self.assertEqual(len(clock.ticks), n)


if __name__ == "__main__":
    unittest.main()
