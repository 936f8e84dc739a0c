"""Host-speed calibration for the benchmark's host-time metrics.

On a shared host the speed a process gets drifts by up to 2x over seconds
to minutes, as other tenants load the same cores; the drift moves the wall
time of a suite pass far more than any change worth measuring. So before
each timed pass the benchmark times this fixed kernel, which does the same
kinds of work as the simulator (small numpy array searches, scalar RNG
draws, decimal rounding, small objects and float arithmetic), and reports
host times at a reference speed:

    reported = wall * REFERENCE_KERNEL_S / kernel wall just before

The kernel never changes, so the scaling is the same on every commit. Raw
wall times and kernel times are kept in the result record.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from time import perf_counter

import numpy as np

# Kernel wall time that defines the reference speed: about what the kernel
# takes on a quiet 2.1 GHz Xeon core. Changing it rescales every host time.
REFERENCE_KERNEL_S = 0.010


class _Cell:
    __slots__ = ("coefficient", "offset")

    def __init__(self, coefficient: float, offset: float) -> None:
        self.coefficient = coefficient
        self.offset = offset


def _kernel(rounds: int = 50) -> float:
    rng = np.random.default_rng(12345)
    openings = np.arange(0.0, 210.0, 5.0)
    dwells = np.arange(0.5, 20.5, 0.5)
    resolution = Decimal("0.1")
    total = 0.0
    for i in range(rounds):
        coefficient = 1e-3 * (1 + i % 7)
        pred = ((coefficient * np.power(openings, 2.5))[:, None]
                * ((openings / 40.0)[:, None] + dwells[None, :]))
        cost = np.abs(pred - 100.0)
        rows, cols = np.nonzero(cost == cost.min())
        total += float(pred[rows[0], cols[0]]) * 1e-9
        for _ in range(30):
            eps = rng.normal(0.0, 0.05)
            reading = Decimal(repr(total + eps)).quantize(
                resolution, rounding=ROUND_HALF_UP)
            cell = _Cell(eps, float(reading))
            total += cell.coefficient * 1.5 ** 2.5 * (0.1 + cell.offset) * 1e-9
    return total


def kernel_seconds() -> float:
    """Wall time of the calibration kernel, the median of three runs so
    that one interruption does not skew the scale."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return sorted(times)[1]
