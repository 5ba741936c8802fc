"""Machine-speed reference for scaling wall times on a shared machine.

On a small shared VM the same code runs up to 1.6x slower for stretches of
seconds to minutes while a neighbour is busy, which swamps the run-to-run
differences the benchmark exists to show. `reference_kernel` is a fixed
piece of work that uses nothing from diffocean but has the same character
as a model step: small-object creation and Python-level dispatch around
NumPy operations on 64x48 arrays. It is timed around every operation and
every EVERY_STEPS untaped model steps, never while a gradient tape is
being recorded, and each reported time is multiplied by NOMINAL_S / (the
kernel's time at that moment), i.e. expressed in seconds at the reference
speed. The kernel shares no code with the package, and kernel_check.py
measures whether what the package leaves in the heap moves it; so the
scaling cancels machine phases but not code changes. Raw wall times are
reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Seconds one kernel call took in the fast phase of a 2-vCPU Xeon VM with
# Python 3.11.7 and NumPy 2.4.6. Only a unit: any fixed value would do.
NOMINAL_S = 5.2e-3

# Untaped model steps between two speed samples inside an operation.
EVERY_STEPS = 100

# A scale factor is the median of this many latest samples.
WINDOW = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 48))
_B = _RNG.standard_normal((64, 48))


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _combine(a, b):
    return a * 0.5 + b


def reference_kernel():
    a, b = _A, _B
    for _ in range(200):
        x = _Cell(np.roll(a, 1, axis=0))
        y = _Cell(b[:, ::-1])
        z = _combine(x.value, y.value)
        a = z - np.mean(z)
    return a


class Speedometer:
    """Timed reference-kernel samples and the factors that convert wall
    seconds into seconds at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent in the kernel itself
        self.scale = 1.0  # factor for an interval just measured

    def sample(self) -> float:
        # A collection started by the kernel's allocations would scan the
        # caller's heap (a whole tape, mid-gradient) and bill it to the
        # kernel. The kernel leaves no garbage, so nothing is deferred.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt
        # The median of the last few samples damps the noise of one.
        self.scale = NOMINAL_S / statistics.median(self.samples[-WINDOW:])
        return dt

    def scale_since(self, first: int) -> float:
        """Factor for a span sampled at even intervals from index `first`
        on: the mean of NOMINAL_S / sample, so that each stretch of the
        span is scaled by the speed measured during it."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples[first:])
