"""Exact k-nearest-neighbor search over a training set.

Two backends: a brute-force scan (the reference) and a kd-tree. Both
return bit-identical results: neighbors are ordered by the total order
(distance, row index), so equal distances resolve to the lower index and
the outcome does not depend on the backend or traversal schedule. The
distance ranked is that of the scalar functions in :mod:`knnsweep.distance`;
euclidean ranks by ``squared_euclidean`` and takes the root only in the
result, so rows whose distances round to the same root keep their squared
order: from (0, 0), rows (1, 2^-26) and (1, 0) are both at 1.0, and k = 1
returns row 1.

Why the kd-tree's pruning is exact. IEEE subtraction, squaring, abs and
addition are monotone: a <= b implies fl(a - c) <= fl(b - c),
fl(c - b) <= fl(c - a), fl(a * a) <= fl(b * b) for 0 <= a, and
fl(a + c) <= fl(b + c). For a point p inside the box [lo, hi], the
per-coordinate gap max(lo - q, q - hi, 0) therefore never exceeds the
computed |p - q|. A box bound that accumulates those gaps from 0.0, in
the same coordinate order and the same steps as ``squared_euclidean`` and
``manhattan``, never exceeds the computed distance of any point in the
box, even where squares overflow to inf. The tree skips a leaf only when its bound is
strictly greater than a distance that k real points already reach, so a
scan with ``<=`` never drops a point that ties the k-th distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import ColumnKind, Dataset
from .distance import DistanceMetric, hamming, manhattan, squared_euclidean

_LEAF_SIZE = 16
# Byte cap on each (block x n) buffer of the blocked brute-force kernel;
# the kd-tree caps each of its per-block buffers at a quarter of it.
_BLOCK_BYTES = 1 << 20
# Query rows the kd-tree searches together. Rows are sorted by home leaf,
# so a small block stays spatially compact and its leaf filter stays tight.
_TREE_BLOCK_ROWS = 16


# The scalar distance each metric's kernels rank by.
_RANKED = {
    DistanceMetric.EUCLIDEAN: squared_euclidean,
    DistanceMetric.MANHATTAN: manhattan,
    DistanceMetric.HAMMING: hamming,
}


class SearchBackend(Enum):
    BRUTE_FORCE = "brute_force"
    KD_TREE = "kd_tree"


@dataclass(frozen=True)
class NeighborSet:
    """min(k, n) training rows nearest to each query.

    For a ``(d,)`` query vector both arrays have shape ``(min(k, n),)``;
    for an ``(m, d)`` query matrix they have shape ``(m, min(k, n))``, one
    row per query row, and ``len`` is m. Along the last axis ``distances``
    is sorted non-decreasing; ties in the ranked distance (squared, for
    euclidean) are broken by ascending training-row index, so the result is
    unique, and rows whose squares root to the same distance keep their
    squared order, which need not be their index order.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _accumulate(dist, columns, q, metric, work, mask):
    """Fill ``dist[i, c]`` with the internal distance from query ``q[i]`` to
    training point c, element for element the IEEE steps of the scalar
    function ``_RANKED[metric]``.

    ``columns`` yields, coordinate by coordinate, that coordinate of the
    training points: a row broadcast over the queries, or a matrix shaped
    like ``dist`` (which may be ``work`` itself). ``work`` and, for
    hamming, the bool ``mask`` are scratch shaped like ``dist``.
    """
    dist.fill(0.0)
    for j, column in enumerate(columns):
        coord = q[:, j:j + 1]
        if metric is DistanceMetric.HAMMING:
            dist += np.not_equal(column, coord, out=mask)  # counts are exact in float64
            continue
        np.subtract(column, coord, out=work)
        if metric is DistanceMetric.EUCLIDEAN:
            np.multiply(work, work, out=work)
        else:
            np.abs(work, out=work)
        dist += work
    return dist


def _nearest_k(dist, k, work, keep, ids=None):
    """(indices, distances), each (b, k): the k smallest entries of each row
    of the (b, c) matrix ``dist`` in (distance, training-row index) order.

    ``ids[i, c]`` is the training row behind ``dist[i, c]`` (default: the
    column c). Every entry at or below its row's k-th smallest value is a
    candidate; sorting them on (row, distance, training row) and taking the
    first k of each row is that order. When no row ties its k-th value,
    every row keeps exactly k candidates, and each row is sorted on its own.
    ``work`` and the bool ``keep`` are scratch shaped like ``dist``.
    """
    b, c = dist.shape
    if k == c:
        keep.fill(True)
    else:
        np.copyto(work, dist)
        work.partition(k - 1, axis=1)
        np.less_equal(dist, work[:, k - 1:k], out=keep)
    flat = np.flatnonzero(keep)
    cand = np.take(dist, flat)
    index = flat % c if ids is None else np.take(ids, flat)
    if flat.size == b * k:
        cand, index = cand.reshape(b, k), index.reshape(b, k)
        order = np.lexsort((index, cand), axis=1)
        return np.take_along_axis(index, order, 1), np.take_along_axis(cand, order, 1)
    row = flat // c
    order = np.lexsort((index, cand, row))
    counts = np.bincount(row, minlength=b)
    take = order[((np.cumsum(counts) - counts)[:, None] + np.arange(k)).ravel()]
    return index[take].reshape(b, k), cand[take].reshape(b, k)


def _box_bounds(lo, hi, q_lo, q_hi, metric):
    """(b, L) lower bounds on the internal distance from any query in the
    box [q_lo[i], q_hi[i]] to any point in the box [lo[:, l], hi[:, l]].

    ``lo``/``hi`` are (d, L) and ``q_lo``/``q_hi`` (b, d). Per coordinate
    the gap is max(lo - q_hi, q_lo - hi, 0), accumulated from 0.0 in the
    order and steps of ``_RANKED[metric]`` (see the module docstring).
    """
    bound = np.zeros((q_lo.shape[0], lo.shape[1]))
    for j in range(lo.shape[0]):
        gap = np.maximum(lo[j] - q_hi[:, j:j + 1], q_lo[:, j:j + 1] - hi[j])
        np.maximum(gap, 0.0, out=gap)
        if metric is DistanceMetric.EUCLIDEAN:
            np.multiply(gap, gap, out=gap)
        bound += gap
    return bound


def _view(buffer, rows, cols):
    """A (rows, cols) view of the flat scratch ``buffer``, or a new array
    where one row alone is wider than the buffer."""
    if rows * cols > buffer.size:
        return np.empty((rows, cols), dtype=buffer.dtype)
    return buffer[:rows * cols].reshape(rows, cols)


class _IndexBase:
    """Shared query plumbing. Each backend implements
    ``_search_rows(rows, k)``: (indices, internal distances), each (m, k),
    for the (m, d) query ``rows``, with k <= n."""

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


class BruteForceIndex(_IndexBase):
    """Reference backend: an exact scan over every training row.

    ``query`` runs a blocked kernel over B = max(1, 1 MiB // (8 n)) query
    rows at a time. Each block is one (B, n) distance matrix, accumulated
    coordinate by coordinate in the same IEEE steps as the scalar distance
    functions, so the result is bit-identical to the per-row scan
    ``_search``, which stays as the reference. Besides a (d, n)
    column-major copy of the training rows made per call, the working set
    is two float64 (B, n) buffers and one bool (B, n) mask, reused across
    blocks. The kernel runs on the calling thread only.
    """

    def _search(self, q, k):
        """The k nearest rows to one query ``q`` by the scalar distance."""
        rank = _RANKED[self.metric]
        internal = np.array([rank(point, q) for point in self._points], dtype=np.float64)
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
        columns = np.ascontiguousarray(self._points.T)
        for start in range(0, m, block):
            q = rows[start:start + block]
            b = q.shape[0]
            dist, work, keep = acc[:b], scratch[:b], mask[:b]
            _accumulate(dist, columns, q, self.metric, work, keep)
            indices[start:start + b], distances[start:start + b] = _nearest_k(dist, k, work, keep)
        return indices, distances


class KdTreeIndex(_IndexBase):
    """Exact kd-tree in flat arrays, searched a block of queries at a time.

    Build: in one (d, n + 1) array, the points column-major followed by
    one sentinel point of +inf whose distance to every query is inf. Level
    by level, every node splits its contiguous range of columns in two with
    ``argpartition`` on its widest-spread axis, until each of the 2^D
    leaves holds at most _LEAF_SIZE points; a node one point short of the
    level's widest is padded with the sentinel, which partitions into the
    right half and is dropped there. Each level reorders the array in place
    by its local order, so at the end it holds the points in leaf order.
    Kept are that array, the training row behind each column, the per-node
    split (axis, value) in heap order, the per-leaf bounding boxes
    ``lo``/``hi`` and each leaf's range. Valid for the two
    axis-decomposable metrics, euclidean and manhattan.

    Search, the query-block form of dual-tree search (Gray & Moore, NIPS
    2000): every query walks down to its home leaf in D vectorized steps,
    and the rows are sorted by home leaf, so consecutive rows are close in
    space. For each block of rows:

    1. seed each query's bound with the k-th smallest distance to a window
       of 2k real points (at least one leaf's worth) around its home leaf;
    2. keep the leaves whose box-to-box bound from the block's query box
       is ``<=`` the block's largest seed bound;
    3. scan every (query, leaf) pair whose point-to-box bound (Friedman,
       Bentley & Finkel, ACM TOMS 1977) is ``<=`` that query's seed bound,
       as one candidate matrix padded with the sentinel;
    4. select the nearest k with the brute-force kernel's tail,
       :func:`_nearest_k`, which breaks ties on the training-row index.

    The seed bound is the k-th distance among real points, so it is at or
    above the true k-th distance, and by the module docstring's argument
    every point at or below the true k-th distance sits in a scanned leaf.
    Each per-block buffer, the candidate matrix included, is capped at
    _BLOCK_BYTES // 4 bytes: a block gives up rows until its buffers fit,
    keeping at least one row.
    """

    def __init__(self, points, metric):
        super().__init__(points, metric)
        n, d = self._points.shape
        depth = 0
        while -(-n >> depth) > _LEAF_SIZE:  # ceil(n / 2^depth)
            depth += 1
        columns = np.full((d, n + 1), np.inf)
        columns[:, :n] = self._points.T
        real = columns[:, :n]
        ids = np.arange(n + 1)
        sizes = np.array([n])
        axes, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for _ in range(depth):
            # Sizes at one level differ by at most 1, so the nodes fit one
            # (nodes, widest) matrix; a short node's last slot is the sentinel.
            starts = np.cumsum(sizes) - sizes
            axis = np.argmax(np.maximum.reduceat(real, starts, axis=1)
                             - np.minimum.reduceat(real, starts, axis=1), axis=0)
            width = int(sizes.max())
            half = width // 2
            src = starts[:, None] + np.arange(width)  # column of each slot
            src[sizes < width, -1] = n
            vals = np.take(columns, axis[:, None] * (n + 1) + src)
            part = np.argpartition(vals, half, axis=1)
            part += np.arange(0, part.size, width)[:, None]
            axes.append(axis)
            values.append(np.take(vals, part[:, half]))
            src = np.take(src, part)
            src = src[src < n]
            for row in real:  # 1-d takes; take(axis=1) copies item by item, ~4x slower
                row[:] = np.take(row, src)
            ids[:n] = np.take(ids, src)
            sizes = np.column_stack([np.full(len(sizes), half), sizes - half]).ravel()
        starts = np.cumsum(sizes) - sizes
        self._depth = depth
        self._split_axis, self._split_value = np.concatenate(axes), np.concatenate(values)
        self._leaf_start, self._leaf_size = starts, sizes
        self._lo = np.minimum.reduceat(real, starts, axis=1)
        self._hi = np.maximum.reduceat(real, starts, axis=1)
        self._columns = columns
        self._ids = ids

    def _home_leaves(self, rows):
        """The leaf each query row reaches by walking down the splits."""
        node = np.zeros(rows.shape[0], dtype=np.intp)
        every = np.arange(rows.shape[0])
        for _ in range(self._depth):
            right = rows[every, self._split_axis[node]] >= self._split_value[node]
            node = 2 * node + 1 + right
        return node - ((1 << self._depth) - 1)

    def _distances(self, q, positions, dist, work):
        """Fill ``dist`` with the internal distances from each query q[i]
        to the points at ``positions[i]`` (leaf order; n is the sentinel)."""
        # mode="clip" writes straight into ``out``; every position is valid
        gathered = (np.take(column, positions, out=work, mode="clip") for column in self._columns)
        return _accumulate(dist, gathered, q, self.metric, work, None)

    def _candidates(self, scan, live, counts, cand):
        """Fill ``cand`` (b, max count) with the leaf-order positions of the
        points in each row's scanned leaves, padded with the sentinel n."""
        row, leaf = np.nonzero(scan)
        leaf = live[leaf]
        size = self._leaf_size[leaf]
        total = int(counts.sum())
        first = np.cumsum(size) - size  # each pair's first slot in the flat list
        pos = np.repeat(self._leaf_start[leaf] - first, size) + np.arange(total)
        row = np.repeat(row, size)
        slot = np.arange(total) - (np.cumsum(counts) - counts)[row]
        cand.fill(self.n_points)
        cand[row, slot] = pos
        return cand

    def _search_rows(self, rows, k):
        m, n = rows.shape[0], self.n_points
        cap = _BLOCK_BYTES // 4 // 8  # entries per block buffer
        indices = np.empty((m, k), dtype=np.int64)
        distances = np.empty((m, k), dtype=np.float64)
        home = self._home_leaves(rows)
        order = np.argsort(home, kind="stable")
        # Seeding from 2k points instead of k gives a bound close enough to
        # the true k-th distance to cut the scan to a few k points per row.
        width = min(n, max(2 * k, int(self._leaf_size.max())))
        window = np.clip(self._leaf_start + self._leaf_size // 2 - width // 2, 0, n - width)
        dist_buf, work_buf = np.empty(cap), np.empty(cap)
        cand_buf, ids_buf = np.empty(cap, dtype=np.intp), np.empty(cap, dtype=np.intp)
        keep_buf = np.empty(cap, dtype=bool)
        start = 0
        while start < m:
            sel = order[start:start + min(_TREE_BLOCK_ROWS, max(1, cap // width))]
            q = rows[sel]
            b = len(sel)
            seed = self._distances(q, window[home[sel]][:, None] + np.arange(width),
                                   _view(dist_buf, b, width), _view(work_buf, b, width))
            seed.partition(k - 1, axis=1)
            bound = seed[:, k - 1].copy()
            live = np.flatnonzero(_box_bounds(
                self._lo, self._hi, q.min(0, keepdims=True), q.max(0, keepdims=True),
                self.metric)[0] <= bound.max())
            b = min(b, max(1, cap // len(live)))
            q, bound = q[:b], bound[:b]
            scan = _box_bounds(self._lo[:, live], self._hi[:, live], q, q,
                               self.metric) <= bound[:, None]
            counts = scan @ self._leaf_size[live]
            fits = np.maximum.accumulate(counts) * np.arange(1, b + 1) <= cap
            b = max(1, int(np.count_nonzero(fits)))
            c = int(counts[:b].max())
            cand = self._candidates(scan[:b], live, counts[:b], _view(cand_buf, b, c))
            dist = self._distances(q[:b], cand, _view(dist_buf, b, c), _view(work_buf, b, c))
            ids = np.take(self._ids, cand, out=_view(ids_buf, b, c), mode="clip")
            block = sel[:b]
            indices[block], distances[block] = _nearest_k(
                dist, k, _view(work_buf, b, c), _view(keep_buf, b, c), ids)
            start += b
        return indices, distances


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
