"""Host-speed calibration.

The host's speed drifts by tens of percent between and within runs (shared
cores, frequency changes). A fixed pure-Python kernel timed right after each
op tracks that drift. Dividing the op's time by the kernel's time (the
median of the five kernel runs around the op, which damps the kernel's own
jitter) and multiplying by the kernel's nominal time ``REF_MS`` gives the
op's time on a host where the kernel takes exactly ``REF_MS``. The kernels do the kind of
work the workloads do (tuple rebuilding and bisection; Fraction arithmetic)
and never touch the program under test.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

_WORD = tuple((i * 7919) % 23 + 1 for i in range(500))


def _tuples() -> None:
    rows: list[tuple[int, ...]] = []
    for a in _WORD:
        for i, row in enumerate(rows):
            j = bisect_right(row, a)
            if j == len(row):
                rows[i] = row + (a,)
                break
            rows[i], a = row[:j] + (a,) + row[j + 1 :], row[j]
        else:
            rows.append((a,))


def _fractions() -> None:
    s = Fraction(0)
    for i in range(1, 1600):
        s += Fraction(i % 7 + 1, i % 11 + 1)
        if s > 100:
            s -= 100


KERNELS = {"tuples": _tuples, "fractions": _fractions}
# Nominal kernel times in ms (their medians on a 2-vCPU x86-64 host).
REF_MS = {"tuples": 5.0, "fractions": 8.0}


class Calibrator:
    """Runs one kernel after each op and converts raw times to host-neutral
    times. ``raw`` holds every kernel time measured, in ms."""

    WINDOW = 2  # kernel runs on each side of an op in its median

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._fn = KERNELS[kernel]
        self.raw: list[float] = []

    def measure(self) -> float:
        t0 = perf_counter()
        self._fn()
        ms = (perf_counter() - t0) * 1e3
        self.raw.append(ms)
        return ms

    def factors(self, start: int = 0) -> list[float]:
        """One factor per kernel run from index ``start`` on: multiply the
        raw time measured just before that run by it to calibrate it."""
        runs, w = self.raw[start:], self.WINDOW
        ref = REF_MS[self.kernel]
        return [ref / median(runs[max(0, i - w) : i + w + 1]) for i in range(len(runs))]
