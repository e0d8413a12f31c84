"""A reference kernel that tracks how fast the host runs at each moment.

On a shared 2-vCPU host the same single-threaded code runs up to 1.6x
faster or slower from one half-minute to the next, and a whole benchmark
run can fall inside a slow phase, so no number of repetitions inside one
run removes it.  The runner therefore times this kernel before the first
task of a pass and after every task, and scales each task's wall time by
NOMINAL_S / (mean of the two kernel times around it).  Scaled timings are
seconds at the host speed where the kernel takes NOMINAL_S; the runner
reports the unscaled wall times next to them.

The kernel is plain interpreter work, a small dict and short-lived slotted
objects with integer arithmetic, and shares no code with hyperglue or with
the libraries it calls (numpy, scipy, HiGHS, fractions), so a change to the
program cannot make the kernel run colder or warmer.  Of the neutral
kernels tried (integer loop, dict, object churn, list allocation, random
list access, float sort), this pair followed the workloads' per-pass swings
most closely on a 2-vCPU x86-64 host: per-pass coefficient of variation
2-6 % scaled against 13-14 % unscaled over 70-100 s runs.
"""

from __future__ import annotations

import time

# typical kernel time on a 2-vCPU x86-64 host with Python 3.11
NOMINAL_S = 0.0030


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, other: "_Pair") -> "_Pair":
        return _Pair((self.a * other.b + self.b) % 1000003, (self.b * other.a + self.a) % 1000003)


def kernel() -> None:
    x, y = _Pair(3, 5), _Pair(7, 2)
    for _ in range(1500):
        x = x.step(y)
    table = {}
    for i in range(4000):
        table[i * 7919 % 10007] = i
    for i in range(4000):
        table.get(i)


def sample() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
