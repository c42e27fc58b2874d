"""The reference kernel that scales the benchmark's times to one host speed.

A shared host runs the same code up to twice as fast at one moment as at the
next, and its speed changes within seconds, so a time measured over a run
says as much about the neighbours as about the program.  The benchmark runs
``reference_work`` next to every step it times, on the same CPU, and scales
the step by how long the kernel took then (``scale``).  The kernel uses only
the standard library, so no change to the program moves it.  It does the
kind of work the program does: Fraction sums whose integers grow to a few
hundred bits.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on an idle host of the kind the benchmark was made on
# (2 vCPUs, Python 3.11); scaled times are seconds on such a host.
REFERENCE_S = 0.0015


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i**9, 2 * i + 3)
    return total


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(seconds: float, *kernels: float) -> float:
    """``seconds`` measured while the kernel took the mean of ``kernels``,
    scaled to a host where it takes REFERENCE_S."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)
