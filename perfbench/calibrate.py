"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the speed of one core drifts by up to 2x over minutes,
as neighbours come and go, and the drift lasts longer than one benchmark run,
so no median over a run removes it. The benchmark therefore times this
reference next to every CLI job and reports job time at reference speed:
``wall * REFERENCE_S / reference wall``.

The reference imports nothing from knnsweep, so a change to the program
cannot move it. Its mix follows the CLI jobs: CSV parsing, recursion with
heap updates over tuples, many tiny numpy calls, full-array numpy scans and
Python loops over float lists, on a working set of several MiB so that it
feels cache pressure from neighbours as the jobs do.
"""

from __future__ import annotations

import csv
import heapq
import io
import time

import numpy as np

# Nominal wall seconds of one reference() call, near its median on the
# 2-vCPU Intel Xeon VM the benchmark was defined on. A fixed scale: changing
# it rescales every reported time and makes old and new numbers incomparable.
REFERENCE_S = 0.1

_LEAF = 16
_rng = np.random.Generator(np.random.PCG64(20221118))
_POINTS = _rng.uniform(0.0, 1.0, size=(131_072, 4))
_QUERIES = _rng.uniform(0.0, 1.0, size=(16, 4))
_LEAVES = _rng.permutation(_POINTS.shape[0] // _LEAF)[:512].tolist()
_VALUES = _POINTS[:, 0].tolist()
_CSV = "\n".join(",".join(map(repr, row)) for row in _POINTS[:9000].tolist())


def _visit(leaves: list, q: np.ndarray, heap: list, k: int) -> None:
    if len(leaves) > 1:
        mid = len(leaves) // 2
        _visit(leaves[:mid], q, heap, k)
        _visit(leaves[mid:], q, heap, k)
        return
    lo = leaves[0] * _LEAF
    d = np.zeros(_LEAF)
    for j in range(q.shape[0]):
        diff = _POINTS[lo:lo + _LEAF, j] - q[j]
        d += diff * diff
    for dist, i in zip(d.tolist(), range(lo, lo + _LEAF)):
        if len(heap) < k:
            heapq.heappush(heap, (-dist, -i))
        elif dist < -heap[0][0]:
            heapq.heapreplace(heap, (-dist, -i))


def _sum_squares(values: list) -> float:
    total = 0.0
    for v in values:
        total += (v - 0.5) * (v - 0.5)
    return total


def reference() -> float:
    """Run the reference computation once; return its wall seconds."""
    start = time.perf_counter()
    [[float(cell) for cell in row] for row in csv.reader(io.StringIO(_CSV))]
    for q in _QUERIES[:6]:
        _visit(_LEAVES, q, [], 32)
    for q in _QUERIES[:9]:
        acc = np.zeros(_POINTS.shape[0])
        for j in range(_POINTS.shape[1]):
            diff = _POINTS[:, j] - q[j]
            acc += diff * diff
        np.argpartition(acc, 32)
    _sum_squares(_VALUES)
    return time.perf_counter() - start
