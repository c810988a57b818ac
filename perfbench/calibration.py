"""Machine-speed calibration for the benchmark's times.

On a shared two-core host the speed of the same single-threaded Python
code drifts by up to 2x, in bursts from under a second to minutes, and a
whole benchmark run often sits in one state, so medians within a run
cannot remove the drift.  A fixed loop of exact rational arithmetic (the
kind of work linfty does, without calling linfty) slows down with the
program: timed next to each other, their ratio moves far less than
either time.

So every time the benchmark reports is in reference seconds: a step of
work that took d seconds, with the loop taking c1 seconds just before it
and c2 just after, is reported as d * CAL_REF_S / ((c1 + c2) / 2), the
time the step would take where the loop takes CAL_REF_S.  The raw seconds
and the loop times are reported next to them.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

# the loop's time at the reference speed: about its time on an unloaded
# 2.1 GHz Xeon vCPU with CPython 3.11
CAL_REF_S = 0.015
REPEATS = 3


def calibration_s():
    """Median time of REPEATS runs of a fixed Fraction-arithmetic loop."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
        times.append(perf_counter() - t0)
    return median(times)


def to_reference(seconds, cal_s):
    """seconds measured while the loop took cal_s, in reference seconds."""
    return seconds * CAL_REF_S / cal_s


class Clock:
    """Times steps of work, calibrating before the first step and after
    each; the calibration runs outside the steps' timed intervals."""

    def __init__(self):
        self.cal_s = [calibration_s()]

    def run(self, fn, *args, **kwargs):
        """Returns (fn(*args, **kwargs), raw seconds, reference seconds)."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        self.cal_s.append(calibration_s())
        return result, raw, to_reference(raw, (self.cal_s[-2] + self.cal_s[-1]) / 2)
