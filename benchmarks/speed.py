"""Host speed probe: a fixed reference kernel, timed between operations.

On a shared host the processor's speed swings by half or more, over
seconds and over minutes, with the load other tenants put on the same
cores; raw wall times of the same code then spread past any useful bound.
So the benchmark also times :func:`kernel`, which does not touch momentkit,
every :data:`EVERY_S` seconds between operations, and scales each wall time
by :data:`REFERENCE_S` over the median kernel time around it.  The scaled
figures are what the code would take on a host where the kernel takes
exactly :data:`REFERENCE_S`: a change to momentkit moves them, a change in
the host's speed mostly does not.  The raw wall times are reported beside
them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Kernel time of the reference host, in seconds.
REFERENCE_S = 1e-3
#: Least wall time between two kernel samples taken by :meth:`Speedometer.tick`.
EVERY_S = 0.05
#: Kernel samples :meth:`Speedometer.settle` takes.
SETUP_SAMPLES = 5

_ROOT = np.random.default_rng(0).standard_normal((12, 12))
_MATRIX = _ROOT @ _ROOT.T


def kernel() -> int:
    """An integer loop, exact rational arithmetic and small symmetric
    eigenproblems: the kinds of work momentkit's operations do."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(i + 1, i + 2) + 1
    for _ in range(10):
        np.linalg.eigh(_MATRIX)
    return total + f.denominator % 2


class Speedometer:
    """Kernel samples since the last :meth:`scale`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0
        for _ in range(3):  # first calls pay for numpy's lazy set-up
            kernel()

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._due = end + EVERY_S

    def tick(self) -> None:
        """Take a sample if :data:`EVERY_S` has passed since the last."""
        if perf_counter() >= self._due:
            self.sample()

    def scale(self) -> float:
        """:data:`REFERENCE_S` over the median sample since the last call,
        which turns wall time of that stretch into reference-host time."""
        if not self.samples:
            self.sample()
        factor = REFERENCE_S / statistics.median(self.samples)
        self.samples.clear()
        return factor

    def settle(self) -> None:
        """Take :data:`SETUP_SAMPLES` samples at once, around a stretch
        too long to be broken by :meth:`tick`."""
        for _ in range(SETUP_SAMPLES):
            self.sample()
