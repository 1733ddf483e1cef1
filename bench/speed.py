"""Machine speed, read from a fixed yardstick timed between ops.

The shared 2-vCPU host the benchmark was built on changes speed by up to 2x,
in phases from under a second to minutes, with nothing else running in the
container (CPU time slows as much as wall time, so it is not stolen time).
Unscaled wall times of the same ops then spread across runs by 10 to 45 %.

A yardstick is a computation that never calls lorenzkit, of the same kinds
as a workload's ops, since interpreter-bound code slows more than
vectorised numpy when the host slows:

- ``mixed`` (``index_mix``, ``w1_pairs``), about 17 ms: ``refs.gini_hoover``
  on one fixed three-density mixture (QUADPACK with Python callbacks and
  scalar scipy.special calls), plus Gaussian and Epanechnikov kernel sums
  of 200 points on a 500-point grid in one matrix;
- ``vectorised`` (``kde_converge``), about 11 ms: the same kernel sums,
  plus Epanechnikov kernel sums of the 200 points at 4000 sorted points in
  blocks of 64 against the sample window, as lorenzkit's KDE evaluates them.

Measured on that host, with each op bracketed by readings: the log time of
index_report and w1_routes ops rose by 0.9 and 1.06 times the log of the
``mixed`` reading (over 730 ops each), and over 15 s windows of a
4-minute run the spread of median op time fell from 11 % unscaled to 2 %
scaled. KDE experiments follow any yardstick less, and less steadily: per
op, their log time rose by 0.73 times the log of the ``vectorised``
reading (96 ops; 0.60 for ``mixed``), and over ten full runs by 0.32 times
the log of the run's median reading. Their scale is therefore the square
root of the yardstick's ratio (``POWER``): for any power between those two,
it leaves at most a quarter of the host's swing (in log units), where full
scaling could leave two thirds and none three quarters.

An op's time at reference speed is its wall time times the yardstick's
``REFERENCE_S`` over the mean of the readings taken just before and just
after it, that ratio raised to the yardstick's ``POWER``. ``REFERENCE_S``
is about the yardstick's median time on that host and ``POWER`` a fixed
constant, so a faster lorenzkit lowers the scaled times exactly as much as
the unscaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

import laws
import refs

INTERVAL_S = 0.15  # op time between readings
BURST = 9  # most passes in one reading, after long ops
_LAW = laws.nested(np.random.default_rng([0, 7, 1]), laws.NESTED_SHAPES[5])
_SAMPLE = np.sort(np.random.default_rng([0, 11]).lognormal(0.0, 0.7, 200))
_GRID = np.linspace(0.0, 4.0, 500)
_QUERIES = np.sort(np.random.default_rng([0, 12]).uniform(0.0, 4.0, 4000))


def _quadrature() -> None:
    refs.gini_hoover(_LAW)


def _kernel_matrix() -> None:
    z = (_GRID[:, None] - _SAMPLE[None, :]) / 0.05
    special.ndtr(z).mean(axis=1)
    u = np.clip(z, -1.0, 1.0)
    (0.5 + 0.75 * u - 0.25 * u**3).mean(axis=1)


def _kernel_blocks() -> None:
    h = 0.03
    for start in range(0, _QUERIES.size, 64):
        blk = _QUERIES[start : start + 64]
        lo = int(np.searchsorted(_SAMPLE, blk[0] - h, side="right"))
        hi = int(np.searchsorted(_SAMPLE, blk[-1] + h, side="left"))
        u = np.clip((blk[:, None] - _SAMPLE[None, lo:hi]) / h, -1.0, 1.0)
        (0.25 * (2.0 + 3.0 * u - u**3)).sum(axis=1)


YARDSTICKS = {
    "mixed": (_quadrature, _kernel_matrix),
    "vectorised": (_kernel_matrix, _kernel_blocks),
}
REFERENCE_S = {"mixed": 0.017, "vectorised": 0.011}
# how strongly the ops a yardstick serves follow it: the power of the
# yardstick's slowdown that is divided out (see the module docstring)
POWER = {"mixed": 1.0, "vectorised": 0.5}


def read(yardstick: str) -> float:
    """Seconds of one pass of the named yardstick."""
    t0 = time.perf_counter()
    for part in YARDSTICKS[yardstick]:
        part()
    return time.perf_counter() - t0


class Meter:
    """Yardstick readings taken between ops, one per INTERVAL_S of op time.

    A reading after a long op is the median of one pass per INTERVAL_S of
    it, at most BURST passes, so that ops of seconds are bracketed as
    closely as a run of short ones.
    """

    def __init__(self, yardstick: str):
        self.yardstick = yardstick
        self.reference_s = REFERENCE_S[yardstick]
        self.power = POWER[yardstick]
        read(yardstick)  # warm-up: first calls fill caches and lazy imports
        self.readings: list[float] = []
        self._since = 0.0

    def mark(self) -> int:
        """Index of the latest reading; take one if there is none yet."""
        if not self.readings:
            self.readings.append(read(self.yardstick))
        return len(self.readings) - 1

    def after(self, latency: float) -> None:
        """Count an op's time; read the yardstick when enough has passed."""
        self._since += latency
        if self._since >= INTERVAL_S:
            self.close()

    def close(self) -> None:
        """Take a reading now, so the last ops have one after them."""
        passes = min(BURST, max(1, int(self._since / INTERVAL_S)))
        self.readings.append(statistics.median(read(self.yardstick) for _ in range(passes)))
        self._since = 0.0

    def scale(self, mark: int) -> float:
        """Factor from wall time to reference time for an op that ran after
        reading `mark`, bracketed by it and the next reading."""
        bracket = 0.5 * (self.readings[mark] + self.readings[mark + 1])
        return (self.reference_s / bracket) ** self.power

    def median_s(self) -> float:
        return statistics.median(self.readings)
