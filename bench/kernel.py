"""The reference kernel that every op time is scaled by.

The kernel is a fixed 8x8 matrix product over `fractions.Fraction`, the
same kind of work the package spends most of its time on (Fraction
construction and gcd normalisation).  It imports nothing from the package,
so a change to the package cannot change it.

An op that took `t` seconds next to a kernel run of `R` seconds is reported
as `t * R0 / R`: its time on a host where the kernel takes `R0`.  The
kernel, its result and `R0` are fixed; changing any of them resets every
baseline recorded with this benchmark.
"""

from __future__ import annotations

import time
from fractions import Fraction

R0_SECONDS = 0.00185
"""Kernel time at reference speed (the kernel's typical time on the host
where the benchmark was calibrated: Python 3.11.7, x86-64)."""

_N = 8
_A = tuple(tuple(Fraction(i + 2 * j + 1, i + j + 2) for j in range(_N)) for i in range(_N))
_B = tuple(tuple(Fraction(3 * i - j, 2 * i + j + 3) for j in range(_N)) for i in range(_N))
_EXPECTED = Fraction(102534215308796863, 321574986532800)


def reference_kernel() -> Fraction:
    """Sum of all entries of A @ B, accumulated entry by entry."""
    total = Fraction(0)
    for row in _A:
        for j in range(_N):
            acc = Fraction(0)
            for k in range(_N):
                acc += row[k] * _B[k][j]
            total += acc
    return total


def time_kernel(repeats: int, samples: list) -> None:
    """Append (start, seconds) of `repeats` consecutive kernel runs."""
    for _ in range(repeats):
        start = time.perf_counter()
        result = reference_kernel()
        samples.append((start, time.perf_counter() - start))
        if result != _EXPECTED:
            raise RuntimeError(f"reference kernel returned {result}")
