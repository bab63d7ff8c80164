"""Wall time scaled to a reference machine speed.

On the 2-core machine this benchmark was written on, one csirmaz5bar
elemental solve took anywhere from 0.85 to 1.42 s within one minute, and
slow spells lasted long enough that the fastest of 8 repeats moved by
40-50% between processes.  The spells slow a fixed loop of stdlib work by about as much
as they slow a job: over 254 back-to-back pairs the two times correlated
at r = 0.80.  So every timed interval is divided by the time of that loop
measured just before and just after it, and multiplied by CAL_REF_S.
Timings are therefore reported in reference seconds: seconds on a
machine where one calibration loop takes CAL_REF_S.  The loop is part of
the benchmark, not of qssbounds, so no change to the package moves it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.010


def calibration_loop() -> tuple[Fraction, int]:
    """Fixed mix of what qssbounds spends its time on.

    Fraction arithmetic (the exact simplex), and dict, tuple and string
    building (the constraint rows and their ids).
    """
    acc = Fraction(0)
    row: dict = {}
    for i in range(1, 1200):
        acc = (acc * Fraction(i, i + 7) - Fraction(3, i)) / 3 + 1
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 97, 7)
        key = (i & 63, f"s:{i & 7}")
        row[key] = row.get(key, 0) + acc.numerator % 5
    return acc, len(row)


def calibrate() -> float:
    """Seconds one calibration loop takes right now."""
    gc.collect()
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds, timed between two calibrations, into reference seconds."""
    return 2 * CAL_REF_S / (before + after)
