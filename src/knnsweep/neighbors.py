"""Exact k-nearest-neighbor search over a training set.

Two backends: a brute-force scan (the reference) and a kd-tree. Both
return bit-identical results: neighbors are ordered by the total order
(distance, row index), so equal distances resolve to the lower index and
the outcome does not depend on the backend or traversal schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import ColumnKind, Dataset
from .distance import DistanceMetric

_LEAF_SIZE = 16
# Byte cap on each (block x n) buffer of the blocked brute-force kernel.
_BLOCK_BYTES = 1 << 20


class SearchBackend(Enum):
    BRUTE_FORCE = "brute_force"
    KD_TREE = "kd_tree"


@dataclass(frozen=True)
class NeighborSet:
    """min(k, n) training rows nearest to each query.

    For a ``(d,)`` query vector both arrays have shape ``(min(k, n),)``;
    for an ``(m, d)`` query matrix they have shape ``(m, min(k, n))``, one
    row per query row, and ``len`` is m. Along the last axis ``distances``
    is sorted non-decreasing; ties are broken by ascending training-row
    index, so the result is unique.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _point_distances(points: np.ndarray, q: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Distance from every row of ``points`` to ``q``.

    Euclidean values are returned *squared* (callers sqrt at the boundary).
    Accumulation runs coordinate by coordinate, one IEEE op per step and
    row, which is exactly the scalar functions' left-to-right order; this
    is what makes batch sizes and backends bit-interchangeable.
    """
    if metric is DistanceMetric.HAMMING:
        return (points != q).sum(axis=1).astype(np.float64)
    acc = np.zeros(points.shape[0], dtype=np.float64)
    if metric is DistanceMetric.EUCLIDEAN:
        for j in range(points.shape[1]):
            diff = points[:, j] - q[j]
            acc += diff * diff
    else:
        for j in range(points.shape[1]):
            acc += np.abs(points[:, j] - q[j])
    return acc


class _IndexBase:
    """Shared query plumbing; subclasses implement _search and may replace
    the row loop of _search_rows."""

    def __init__(self, points: np.ndarray, metric: DistanceMetric):
        self._points = points
        self.metric = metric

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def check_query(self, q, vector_only: bool = False) -> np.ndarray:
        """``q`` as float64: a vector of length dim or, unless
        ``vector_only``, a matrix of such rows; ValueError otherwise."""
        arr = np.asarray(q, dtype=np.float64)
        if arr.ndim not in ((1,) if vector_only else (1, 2)) or arr.shape[-1] != self.dim:
            raise ValueError(
                f"query has shape {arr.shape}, expected a vector of length {self.dim}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("query vector contains NaN or infinite values")
        if self.metric is DistanceMetric.HAMMING and np.any(arr != np.floor(arr)):
            raise ValueError("hamming distance requires integer category codes")
        return arr

    def query(self, q, k: int) -> NeighborSet:
        """The min(k, n) nearest rows under the index metric, for a ``(d,)``
        vector or for every row of an ``(m, d)`` matrix (the
        ``scipy.spatial.cKDTree.query`` convention). The result arrays have
        shape ``q.shape[:-1] + (min(k, n),)``.
        """
        arr = self.check_query(q)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_points)
        rows = arr.reshape(-1, self.dim)
        with np.errstate(over="ignore"):  # squared distances past float range are inf
            indices, distances = self._search_rows(rows, k)
        if self.metric is DistanceMetric.EUCLIDEAN:
            np.sqrt(distances, out=distances)  # the search ranks squared distances
        shape = arr.shape[:-1] + (k,)
        return NeighborSet(indices=indices.reshape(shape), distances=distances.reshape(shape))

    def _search_rows(self, rows: np.ndarray, k: int):
        """(indices, internal distances), each (m, k), for the (m, d) query
        ``rows``; k <= n. The default runs _search on one row at a time."""
        indices = np.empty((rows.shape[0], k), dtype=np.int64)
        distances = np.empty((rows.shape[0], k), dtype=np.float64)
        for i, row in enumerate(rows):
            indices[i], distances[i] = self._search(row, k)
        return indices, distances

    def _search(self, q: np.ndarray, k: int):
        raise NotImplementedError


class BruteForceIndex(_IndexBase):
    """Reference backend: an exact scan over every training row.

    ``query`` runs a blocked kernel over B = max(1, 1 MiB // (8 n)) query
    rows at a time. Each block is one (B, n) distance matrix, accumulated
    coordinate by coordinate in the same IEEE steps as
    :func:`_point_distances`, so the result is bit-identical to the per-row
    scan ``_search``, which stays as the reference. Besides a (d, n)
    column-major copy of the training rows made per call, the working set
    is two float64 (B, n) buffers and one bool (B, n) mask, reused across
    blocks. The kernel runs on the calling thread only.
    """

    def _search(self, q, k):
        internal = _point_distances(self._points, q, self.metric)
        order = np.argsort(internal, kind="stable")[:k].astype(np.int64)
        return order, internal[order]

    def _search_rows(self, rows, k):
        m, n = rows.shape[0], self.n_points
        block = max(1, _BLOCK_BYTES // (8 * n))
        indices = np.empty((m, k), dtype=np.int64)
        distances = np.empty((m, k), dtype=np.float64)
        acc = np.empty((min(block, m), n), dtype=np.float64)
        scratch = np.empty_like(acc)
        mask = np.empty(acc.shape, dtype=bool)
        first_k = np.arange(k)
        columns = np.ascontiguousarray(self._points.T)
        for start in range(0, m, block):
            q = rows[start:start + block]
            b = q.shape[0]
            dist, work, keep = acc[:b], scratch[:b], mask[:b]
            self._block_distances(columns, q, dist, work, keep)
            # Every entry at or below its row's k-th smallest value is a
            # candidate; sorting them on (row, distance, column) and taking
            # the first k of each row is the (distance, row index) order.
            if k == n:
                keep.fill(True)
            else:
                np.copyto(work, dist)
                work.partition(k - 1, axis=1)
                np.less_equal(dist, work[:, k - 1:k], out=keep)
            flat = np.flatnonzero(keep)
            row, col = np.divmod(flat, n)
            cand = np.take(dist, flat)
            order = np.lexsort((col, cand, row))
            counts = np.bincount(row, minlength=b)
            take = order[((np.cumsum(counts) - counts)[:, None] + first_k).ravel()]
            indices[start:start + b] = col[take].reshape(b, k)
            distances[start:start + b] = cand[take].reshape(b, k)
        return indices, distances

    def _block_distances(self, columns, q, dist, work, keep):
        """Fill ``dist[i, r]`` with the internal distance from query ``q[i]``
        to training row r, element for element the ops of _point_distances;
        ``work`` and ``keep`` are scratch."""
        dist.fill(0.0)
        for j in range(self.dim):
            column, coord = columns[j], q[:, j:j + 1]
            if self.metric is DistanceMetric.HAMMING:
                np.not_equal(column, coord, out=keep)
                dist += keep  # mismatch counts are exact in float64
                continue
            np.subtract(column, coord, out=work)
            if self.metric is DistanceMetric.EUCLIDEAN:
                np.multiply(work, work, out=work)
            else:
                np.abs(work, out=work)
            dist += work


class _KdNode:
    __slots__ = ("axis", "left_max", "right_min", "left", "right", "row_ids", "points")

    def __init__(self):
        self.row_ids = None  # leaf payload: list of original row indices
        self.points = None


class KdTreeIndex(_IndexBase):
    """Exact kd-tree: median split on the widest-spread dimension, leaf
    size 16, pruning via the split-axis distance bound (valid for the two
    axis-decomposable metrics, euclidean and manhattan).

    Pruning only skips a subtree when its axis bound strictly exceeds the
    current k-th best distance, so equal-distance points always get
    examined and the (distance, index) tie-break matches brute force.
    """

    def __init__(self, points, metric):
        super().__init__(points, metric)
        self._root = self._build(np.arange(self.n_points, dtype=np.int64))

    def _build(self, ids: np.ndarray) -> _KdNode:
        node = _KdNode()
        pts = self._points[ids]
        if len(ids) <= _LEAF_SIZE:
            node.row_ids = ids.tolist()
            node.points = pts
            return node
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spread))
        order = ids[np.argsort(pts[:, axis], kind="stable")]
        mid = len(order) // 2
        node.axis = axis
        node.left_max = float(self._points[order[mid - 1], axis])
        node.right_min = float(self._points[order[mid], axis])
        node.left = self._build(order[:mid])
        node.right = self._build(order[mid:])
        return node

    def _search(self, q, k):
        euclid = self.metric is DistanceMetric.EUCLIDEAN
        heap: list[tuple[float, int]] = []  # (-distance, -index): root is the worst kept

        def visit(node: _KdNode) -> None:
            if node.row_ids is not None:
                dvec = _point_distances(node.points, q, self.metric)
                for d, i in zip(dvec.tolist(), node.row_ids):
                    if len(heap) < k:
                        heapq.heappush(heap, (-d, -i))
                    else:
                        worst_d, worst_i = -heap[0][0], -heap[0][1]
                        if d < worst_d or (d == worst_d and i < worst_i):
                            heapq.heapreplace(heap, (-d, -i))
                return
            qa = float(q[node.axis])
            gap_left = qa - node.left_max
            gap_right = node.right_min - qa
            if gap_left <= gap_right:
                children = ((node.left, gap_left), (node.right, gap_right))
            else:
                children = ((node.right, gap_right), (node.left, gap_left))
            for child, gap in children:
                if len(heap) == k and gap > 0.0:
                    bound = gap * gap if euclid else gap
                    if bound > -heap[0][0]:
                        continue
                visit(child)

        visit(self._root)
        pairs = sorted((-neg_d, -neg_i) for neg_d, neg_i in heap)
        indices = np.fromiter((i for _, i in pairs), dtype=np.int64, count=len(pairs))
        internal = np.fromiter((d for d, _ in pairs), dtype=np.float64, count=len(pairs))
        return indices, internal


def build_index(train: Dataset, metric: DistanceMetric, backend: SearchBackend):
    """Build an immutable neighbor index over all training rows.

    hamming requires an all-categorical dataset and is not supported by
    the kd-tree backend.
    """
    if train.n_rows == 0:
        raise ValueError("cannot build an index over an empty training set")
    if metric is DistanceMetric.HAMMING:
        if any(kind is not ColumnKind.CATEGORICAL for kind in train.column_kinds):
            raise ValueError(
                "hamming distance is only valid when every feature column is categorical"
            )
        if backend is SearchBackend.KD_TREE:
            raise ValueError("kd_tree backend supports euclidean and manhattan only")
    if backend is SearchBackend.KD_TREE:
        return KdTreeIndex(train.features, metric)
    if backend is SearchBackend.BRUTE_FORCE:
        return BruteForceIndex(train.features, metric)
    raise ValueError(f"unknown backend: {backend!r}")


def query(index, q, k: int) -> NeighborSet:
    """Functional form of ``index.query``: a query vector or matrix."""
    return index.query(q, k)


def query_radius_of_kth(index, q, k: int) -> float:
    """Distance from one query vector ``q`` to its k-th nearest neighbor
    (requires k <= n)."""
    if k > index.n_points:
        raise ValueError(f"k={k} exceeds the {index.n_points} indexed rows")
    return float(index.query(index.check_query(q, vector_only=True), k).distances[-1])
