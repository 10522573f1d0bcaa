"""The CPU's current speed, read from a fixed pure-Python kernel.

On a shared machine the speed one process gets drifts by 15-20% within
seconds and between minutes, well past any useful regression bound, while
the ratio of an operation's time to the kernel's time measured next to it
stays within a few percent. Every timed operation is therefore scaled by
`REFERENCE_S / kernel time`, the kernel being timed right before and right
after it: the scaled value is the time the operation would have taken at
the reference speed. The kernel uses only the benchmark's own `facts`
code (exact integer and `Fraction` work, like the program's), so no change
to the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import facts

# The kernel's time at the reference speed, near its median on the 2-core
# machine the README's reference figures come from.
REFERENCE_S = 0.0014
REPEATS = 3

_SPEC = facts.Spec("kernel", [f"v{i}" for i in range(6)], [-2, -3, -2, -2, -4, -3],
                   [(f"v{i}", f"v{i + 1}") for i in range(4)] + [("v2", "v5")])


def _kernel():
    facts.canonical_cycle(_SPEC)
    facts.negative_definite(_SPEC)
    facts.fundamental_cycle(_SPEC)
    facts.chi(_SPEC, [1, 2, 3, 2, 1, 1])
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(1, k)


def kernel_s() -> float:
    """Mean time of a few kernel runs. A mean, not a minimum: an operation
    runs through every slow moment, and so does the mean."""
    started = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (time.perf_counter() - started) / REPEATS


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel readings into a
    time at the reference speed."""
    return REFERENCE_S * 2 / (before + after)
