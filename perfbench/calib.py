"""Machine-speed probe: a fixed kernel that uses nothing of ``nonsmooth``.

The benchmark runs on shared 2-vCPU machines whose speed drifts by 20-30%
over minutes, so two sets of runs of the same code taken a quarter of an
hour apart disagreed by more than the benchmark's bounds.  A run therefore
times this kernel in short bursts between its ops (outside the timed
region) and scales its timed metrics by

    factor = NOMINAL_S / (median time of one kernel call in the run)

so that they read as on the reference machine at its usual speed.  The
kernel mixes what the workloads spend their time on: interpreted Python
(dict and attribute access, calls), small numpy arrays and a small LAPACK
solve.  It must not change: its time defines the unit of every scaled
metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0095  # median seconds per kernel call on the reference machine
BURST = 5  # kernel calls per probe


class _Node:
    __slots__ = ("value", "kids")

    def __init__(self, value, kids=()):
        self.value = value
        self.kids = kids


def _walk(node) -> float:
    if not node.kids:
        return node.value
    return max(_walk(k) for k in node.kids) - 0.5 * node.value


def kernel() -> float:
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    tree = _Node(1.0, tuple(_Node(0.5 * i, (_Node(float(i)), _Node(-float(i)))) for i in range(8)))
    table = {}
    acc = 0.0
    for i in range(400):
        table[i & 31] = acc
        acc += _walk(tree) + table.get((i + 1) & 31, 0.0) * 1e-3
        x = np.linalg.solve(A, b + 1e-3 * acc)
        acc += float(np.abs(x).max()) * 1e-6
    return acc


class Speed:
    """Kernel times collected through a run."""

    def __init__(self):
        self.samples: list = []
        self.last = -float("inf")

    def probe(self) -> None:
        for _ in range(BURST):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def due(self, every_s: float) -> bool:
        return time.perf_counter() - self.last >= every_s

    def factor(self) -> float:
        """NOMINAL_S over the median kernel time: above 1 on a fast stretch."""
        return NOMINAL_S / statistics.median(self.samples)
