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
computed |p - q|. The box bound sums those gaps in ``_accumulate``, the
kernel behind every ranked distance, so from 0.0 in the coordinate order
and steps of ``squared_euclidean`` and ``manhattan``: it never exceeds the
computed distance of any point in the box, even where squares overflow to
inf. The tree skips a leaf only when its bound is strictly greater than a
distance that k real points already reach, so a scan with ``<=`` never
drops a point that ties the k-th distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

from .dataset import ColumnKind, Dataset
from .distance import DistanceMetric, hamming, manhattan, squared_euclidean

_LEAF_SIZE = 16
# The kd build also stops at this depth: every query sub-block bounds every leaf's box, so
# large training sets get larger leaves. 100000 x 2, k 10: build and query took 83, 67,
# 66, 68 and 88 ms at depth 8-11 and uncapped (13); up to 2^14 rows never reach it.
_TREE_MAX_DEPTH = 10
# Byte cap on each (block x n) buffer of the blocked brute-force kernel; the euclidean
# filter's float32 product fills half of one, and the float32 copy of the points and their
# norms it reads ((d + 1) n 4 bytes, made once per call) is outside the cap. The kd-tree's
# buffers take a quarter of it, and each piece of a kd block fits its candidates in one.
# Both reuse them per call: per-block buffers raised predict_brute_d8 peak_rss_mb 1.4-1.7 MiB.
_BLOCK_BYTES = 1 << 20
# Rows with S / sigma^2 + W_i at or below this have finite distances and may take the
# euclidean filter, which also needs w_i = fl(|sigma q'_i|^2) <= 2^100 for its float32
# product, taken in sigma units as sigma^2 W_i underflows to 0 (see BruteForceIndex); other
# rows take the exact loop.
_FILTER_LIMIT = 2.0**1000
# The euclidean filter takes each row's K_i from G = n // r minima of F over groups of
# r = max(1, n // (_GROUPS_PER_K k)) columns (see BruteForceIndex). On 20000 x 8, k 10,
# 1000 queries, G = 2k, 4k, 8k, 16k, 32k, 64k, 128k took 33.4, 25.2, 18.3, 16.2, 15.8, 15.5,
# 16.0 ms (K_i over every 4th column: 22.5-23.0 ms); a min-reduce over a short axis is slow.
_GROUPS_PER_K = 64
# Query rows per kd sub-block, the unit of the box-to-box leaf filter. Rows are sorted by
# home leaf, so a small sub-block stays spatially compact and its leaf filter tight; blocks
# then merge sub-blocks while their scan fits a buffer half (see KdTreeIndex). As the only
# block size, 16, 24, 32, 64 rows took 45, 41, 40, 42 ms at 8000 x 3, k 76; 23, 18, 17,
# 13 ms at 100000 x 2, k 10; 16, 15, 15, 16 ms at normal 20000 x 3, k 10. Merged, the
# 100000 x 2 query ranks about 39 pieces, not 64, in 0.85x the time; 8000 x 3, k 76 and
# normal 20000 x 3, 20000 x 6 and 50000 x 3, k 10 read 0.97-1.02x.
_TREE_BLOCK_ROWS = 32
# A sub-block also ends where its rows leave one subtree of 2^this leaves, so it never
# straddles a higher split and keeps leaves on both sides. 60 paired queries with no cut
# took 2.9% longer at 100000 x 2, k 10 (1024 leaves; 2 of 3 seeds), 2.8-7.0% at normal
# 20000 x 3, k 10; 6-9 timed alike; sweep_kd_d3's (8000 x 3, k 76) stays flat.
_TREE_BLOCK_LEVELS = 8
# Consecutive candidate blocks are ranked together once their padded matrix holds this many
# entries, never past 4x it unless one block alone is. 20000 x 8, k 10: 17 groups, not 167,
# query ~20% faster (3 since K_i came from group minima); 2^13 slowed 8000 x 3, k 76.
_RANK_ENTRIES = 1 << 12
# The euclidean filter's product runs in column slices of at most this M*N*K, with K = d + 1
# (the norms row): two slices at 20000 x 8. OpenBLAS put slices of 2^20 on 2 threads in 27 of
# 30 processes ((6, 9) @ (9, 19418)), 10^6 in 0 of 30; in float32, 2^20 in 26 of 30 (4 stalled
# about 1 s) and 10^6 in 0 of 30. Unsliced, (6, 9) @ (9, 20000) took 134-149 us, sliced 29-32.
_PRODUCT_SIZE = 10**6


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


def _accumulate(dist, terms, metric):
    """Fill ``dist`` with the sum, from 0.0 in coordinate order, of the
    per-coordinate ``terms``, each squared (euclidean), taken absolute
    (manhattan) or added as is (hamming's 0.0/1.0 mismatch): element for
    element the IEEE steps of the scalar function ``_RANKED[metric]``.

    ``terms`` yields one float64 array shaped like ``dist`` per
    coordinate, which is overwritten.
    """
    dist.fill(0.0)
    for term in terms:
        if metric is DistanceMetric.EUCLIDEAN:
            np.multiply(term, term, out=term)
        elif metric is DistanceMetric.MANHATTAN:
            np.abs(term, out=term)
        dist += term
    return dist


def _nearest_k(dist, k, work, keep, ids=None):
    """(indices, distances), each (b, k): the k smallest entries of each row
    of the (b, c) matrix ``dist`` in (distance, training-row index) order.

    ``ids[i, c]`` is the training row behind ``dist[i, c]`` (default: the
    column c). Every entry at or below its row's k-th smallest value is
    kept (at k = c, every entry) as one complex key: the distance is its
    real part and the training row its imaginary part, both assigned, so
    no distance bit changes. numpy orders complex numbers by real, then
    imaginary part, so one sort per row gives the (distance, training row)
    order. Where a row ties its k-th value and keeps more than k, every
    row is padded with complex(inf, inf), which sorts after any kept key.
    ``work`` and the bool ``keep`` are scratch shaped like ``dist``.
    """
    b, c = dist.shape
    np.copyto(work, dist)
    # The floats are partitioned, not the keys: partitioning and sorting keys of
    # every entry was 1.8x slower at (32, 300), k 76 and 9x at (6, 20000), k 10.
    work.partition(k - 1, axis=1)
    np.less_equal(dist, work[:, k - 1:k], out=keep)
    flat = np.flatnonzero(keep)
    key = np.take(dist, flat).astype(complex)
    key.imag = flat % c if ids is None else np.take(ids, flat)
    if flat.size > b * k:
        counts = np.count_nonzero(keep, axis=1)
        padded = np.full((b, counts.max()), complex(np.inf, np.inf))
        padded[np.arange(padded.shape[1]) < counts[:, None]] = key
        key = padded
    top = np.sort(key.reshape(b, -1), axis=1)[:, :k]
    return top.imag.astype(np.int64), top.real


def _box_bounds(lo, hi, q_lo, q_hi, metric, dist=None, below=None, above=None):
    """(b, L) lower bounds on the internal distance from any query in the
    box [q_lo[i], q_hi[i]] to any point in the box [lo[:, l], hi[:, l]].

    ``lo``/``hi`` are (d, L) and ``q_lo``/``q_hi`` (b, d). Per coordinate
    the gap is max(lo - q_hi, q_lo - hi, 0), and ``_accumulate`` sums the
    gaps as it sums coordinate differences (see the module docstring).
    The bounds fill ``dist``; ``below`` and ``above`` are (b, L) scratch.
    Each is a new array where None.
    """
    def gap(j):  # in place: 200 KiB less peak on a 100000 x 2, k 10 query
        term = np.subtract(lo[j], q_hi[:, j:j + 1], out=below)
        np.maximum(term, np.subtract(q_lo[:, j:j + 1], hi[j], out=above), out=term)
        return np.maximum(term, 0.0, out=term)

    return _accumulate(np.empty((q_lo.shape[0], lo.shape[1])) if dist is None else dist,
                       map(gap, range(lo.shape[0])), metric)


def _grouped(blocks):
    """Consecutive candidate blocks (sel, positions, counts, bound), merged
    into one whenever their padded matrix holds _RANK_ENTRIES entries, or
    before the next block would take it past 4 _RANK_ENTRIES."""
    group, b, c = [], 0, 0
    for block in blocks:
        rows, width = block[0].size, int(block[2].max())
        if group and (b + rows) * max(c, width) > 4 * _RANK_ENTRIES:
            yield _merged(group)
            group, b, c = [], 0, 0
        group.append(block)
        del block  # a ranked block is freed before the next is made: 120 KiB less peak
        b, c = b + rows, max(c, width)
        if b * c >= _RANK_ENTRIES:
            yield _merged(group)
            group, b, c = [], 0, 0
    if group:
        yield _merged(group)


def _merged(group):
    """One candidate block holding the rows of every block in ``group``."""
    if len(group) == 1:
        return group[0]
    sel, positions, counts, bound = zip(*group)
    return (np.concatenate(sel), np.concatenate(positions), np.concatenate(counts),
            None if bound[0] is None else np.concatenate(bound))


def _view(buffer, *shape):
    """A view of the flat scratch ``buffer`` in ``shape``, or a new array
    where the shape holds more entries than the buffer."""
    size = prod(shape)
    if size > buffer.size:
        return np.empty(shape, dtype=buffer.dtype)
    return buffer[:size].reshape(shape)


class _IndexBase:
    """Shared query plumbing. Each backend implements
    ``_search_rows(rows, k, indices, distances)``, which fills the (m, k)
    indices and internal distances for the (m, d) query ``rows``, with
    k <= n. ``_columns`` holds a (d, n) copy of the points, column-major;
    ``_ids`` maps a column to its training row (None: itself)."""

    _ids = None

    def __init__(self, points: np.ndarray, metric: DistanceMetric):
        self.metric = metric
        # a copy, always: at d = 1 points.T is already C-ordered, and the kd build reorders in place
        self._columns = np.array(points.T, order="C")

    @property
    def n_points(self) -> int:
        return self._columns.shape[1]

    @property
    def dim(self) -> int:
        return self._columns.shape[0]

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
        indices, distances = np.empty((len(rows), k), dtype=np.int64), np.empty((len(rows), k))
        with np.errstate(over="ignore"):  # squared distances past float range are inf
            self._search_rows(rows, k, indices, distances)
        if self.metric is DistanceMetric.EUCLIDEAN:
            np.sqrt(distances, out=distances)  # the search ranks squared distances
        shape = arr.shape[:-1] + (k,)
        return NeighborSet(indices=indices.reshape(shape), distances=distances.reshape(shape))

    def _distances(self, q, positions, dist, work, counts=None):
        """Fill ``dist`` with the internal distances from each query q[i]
        to the columns at ``positions[i]``, or to every real column where
        ``positions`` is None. Where ``counts`` is given, ``positions`` and
        ``dist`` are flat: the first counts[0] entries are from q[0], the
        next counts[1] from q[1], and so on. ``work`` is scratch like ``dist``."""
        # None broadcasts, not gathers: 0.28 s against 0.50 s on 20000 x 8 manhattan.
        # mode="clip" writes straight into ``out``; every position is valid
        columns = self._columns if positions is None else (
            np.take(column, positions, out=work, mode="clip") for column in self._columns)
        coords = (q[:, j:j + 1] if counts is None else np.repeat(q[:, j], counts)
                  for j in range(self.dim))
        # hamming's term is a mismatch, 0.0 or 1.0: counts are exact in float64
        term = np.not_equal if self.metric is DistanceMetric.HAMMING else np.subtract
        terms = (term(column, coord, out=work) for column, coord in zip(columns, coords))
        return _accumulate(dist, terms, self.metric)

    def _rank(self, rows, blocks, k, indices, distances, dist_buf, work_buf, keep_buf):
        """Fill ``indices[sel]`` and ``distances[sel]`` for each candidate
        block (sel, positions, counts, bound) of ``blocks``: the query rows
        ``rows[sel]``, the column positions of their candidates, row after
        row, each row's count and, for the kd-tree, each row's seed bound
        (brute force: None). Consecutive blocks are merged (see
        ``_grouped``). A group's distances are computed once, on the flat
        candidate list; candidates above their row's bound are dropped (see
        ``KdTreeIndex``), and the rest are padded (distance inf, training
        row n) into one matrix for ``_nearest_k``. All of it runs in the flat
        scratch buffers, which the block generator must no longer need once
        it has yielded a block."""
        id_buf = np.empty(0, dtype=np.intp)
        for sel, positions, counts, bound in _grouped(blocks):
            b, size = sel.size, positions.size
            dist = self._distances(rows[sel], positions, _view(dist_buf, size),
                                   _view(work_buf, size), counts)
            if bound is not None:
                kept = np.flatnonzero(np.less_equal(dist, np.repeat(bound, counts),
                                                    out=_view(keep_buf, size)))
                positions, dist = positions.take(kept), dist.take(kept)
                counts = np.searchsorted(kept, np.cumsum(counts))  # kept up to each row's end
                counts[1:] -= counts[:-1]  # numpy buffers the overlap; 3x faster than np.diff
            c = int(counts.max())
            # grown to the largest matrix so far: kd groups reach 2^15 entries, filter groups ~2^12
            if b * c > id_buf.size:
                id_buf = np.empty(b * c, dtype=np.intp)
            filled = np.less(np.arange(c), counts[:, None], out=_view(keep_buf, b, c))
            padded, ids = _view(work_buf, b, c), _view(id_buf, b, c)
            padded.fill(np.inf)
            padded[filled] = dist
            ids.fill(self.n_points)
            ids[filled] = positions if self._ids is None else np.take(self._ids, positions)
            indices[sel], distances[sel] = _nearest_k(
                padded, k, _view(dist_buf, b, c), _view(keep_buf, b, c), ids)
            del positions, dist  # before the next block is made: 84 KiB less peak at 8000 x 3, k 76


class BruteForceIndex(_IndexBase):
    """Reference backend: an exact scan over every training row.

    ``query`` works through B = max(1, 1 MiB // (8 n)) query rows at a
    time, in three reused buffers: two float64 (B, n) matrices and one
    bool (B, n) mask. A block's candidate arrays hold at most B n entries
    each, so they stay within 1 MiB too, as does the candidate matrix of
    each group of blocks that ``_rank`` packs into the three buffers and
    an intp buffer. The per-row scan ``_search``
    stays as the reference, and every answer is bit-identical to it. Like
    the kd-tree, the index holds the points as one (d, n) array; the
    euclidean filter adds the column means mu, one float32 n-vector and
    a few floats.

    Euclidean rows are filtered in float32, then verified in float64. At
    build, x' = fl(x - mu) is scaled by sigma = 2^-e, where e comes from
    frexp of the largest |x'_j| (but e >= -1022, so that sigma is a
    float): every |sigma x'_j| is then below 1. Each training row keeps
    s = fl(|sigma x'|^2) as the float32 fl32(s (1 - c)), and S = max s.
    A query call that routes any row to the filter first makes the float32
    (d + 1, n) copy [Y; fl32(s (1 - c))] of the points: Y = fl32(sigma
    fl(x - mu)), one column at a time, over the stored norms as its last
    row; it is dropped when the call returns, so the index never holds
    it. Per query row, q' = fl(q - mu), W = fl(|q'|^2) and, in sigma
    units, w = fl(|sigma q'|^2), in float64. Once per call, each filtered
    row's [fl32(-2 sigma q'), 1] is rounded to float32 and its
    T_i = fl(fl(2c) fl(S + w_i)) taken in float64. Per block,
    F = [fl32(-2 sigma q'), 1] @ [Y; fl32(s (1 - c))] is one float32 BLAS
    product, which carries the norms in its sum, in column slices of at
    most _PRODUCT_SIZE multiply-adds counted with K = d + 1 (two slices at
    20000 x 8), in a float32 view of a float64 buffer. K_i is the k-th
    smallest of row i's minima of F over G = n // r groups,
    r = max(1, n // (64 k)), column j < r G in group j mod G; any column j
    is a candidate for row i when F_ij <= K_i + 2c (S + w_i) + 2 tau: the
    bound fl(fl(K_i + T_i) + 2 tau) is computed in float64 and rounded up
    to a float32, so that the compare stays in float32. That is about
    k (1 + k / 2G) candidates per row, whose distances alone are computed,
    from the raw coordinates in the scalar order, and ranked by ``_rank``,
    blocks together.
    Here c = (4d + 128) 2^-24 and tau = (d + 2) (2^-100 + sigma^2 2^-1000).
    A row takes the filter where d <= 2^16, S / sigma^2 + W <= 2^1000,
    which keeps every ranked distance finite (where the k-th is inf, every
    inf column ties it), and w <= 2^100, which keeps every float32 value
    far below 2^128.
    Other rows, and the manhattan and hamming metrics, take the exact
    loop: every distance of the block accumulated coordinate by
    coordinate from the stored columns, read in place, copying nothing
    per call. The product reads centered points, so the bound grows with
    the query's distance from mu, not with mu: an offset common to all
    points does not widen the filter.

    Why the filter is exact. Take IEEE arithmetic. In float64, u = 2^-53
    and eta = 2^-1074: a sum or difference is (a + b)(1 + e) with
    |e| <= u, exact where the result is subnormal, and a product may add
    at most eta / 2 more. In float32, v = 2^-24, and a cast, product or
    sum may add up to lambda = 2^-126 to its relative error: that covers
    subnormals, spaced 2^-149, and a BLAS that flushes subnormal inputs
    or results to zero. So an m-term sum or inner product, in any order
    and with or without FMA, is within gamma_m = m u / (1 - m u) (float64)
    or m v / (1 - m v) (float32) times the sum of the terms' magnitudes,
    plus m eta or 2 m lambda (Higham 2002, 3.1). Take d <= 2^16, so that
    every (1 + O(d v)) factor below is under 1.01, and a row that passes
    the route, so that nothing overflows. Every quantity below is a
    squared length in sigma units, sigma^2 times its value in the data's
    units: for a query q and a training row x, the exact
    a = sigma^2 |x - mu|^2, r = sigma^2 |q'|^2 and
    D = sigma^2 |x - q|^2, and E, sigma^2 times the computed distance.
    a <= 1.01 s + 2.1 d eta, sigma^2 |q - mu|^2 <= 1.01 r, and
    r <= 1.01 (w + 2 d eta), as sigma is a power of two: sigma q'_j is
    exact unless it is subnormal, and then within eta / 2.

    1. Centering, float64. p = mu + q' is within u |q_j - mu_j| of q per
       coordinate, so D and D~ = sigma^2 |x - p|^2 differ by at most
       3.01 u (a + 1.01 r), and D~ = a + 2 sigma^2 q'.(mu - x) + r.
    2. Scalar order, float64. The computed distance sums the d rounded
       squares left to right from 0.0, so |E - D| <= gamma_(d+2) D
       + sigma^2 d eta, with D <= 2 (a + 1.01 r): E's own subnormal error,
       d eta, is sigma^2 d eta in sigma units.
    3. Rounding to float32. With y = sigma x' and z = -2 sigma q', Y_j and
       L_j = fl32(z_j) are within 1.01 v |y_j| + lambda and
       1.01 v |z_j| + lambda of y_j and z_j (lambda also covers the
       eta / 2 of a float64 sigma x'_j that underflows), |y_j| < 1, and
       |z_j| lambda <= v z_j^2 / 2 + lambda^2 / (2 v). As
       |z|.|y| <= r + sigma^2 |x'|^2, L.Y is within
       2.03 v (r + sigma^2 |x'|^2) + 2.02 v r + 1.02 d lambda of z.y.
    4. Product, float32. F is one inner product of d + 1 terms, the d
       products L_j Y_j and 1 times fl32(s (1 - c)), an exact product;
       fl32(s (1 - c)) is within 1.01 v s + lambda of s (1 - c). So F is
       within gamma_(d+1) times the terms' magnitudes plus
       2 (d + 1) lambda of their exact sum.

    With G = F + r + c s, G - D~ = (F - L.Y - fl32(s (1 - c)))
    + (L.Y - z.y) + (fl32(s (1 - c)) - (1 - c) s) + (s - a)
    + 2 sigma^2 q'.(x - mu - x'), where |s - a| <= (d + 3) 1.01 u a
    + 2.03 d eta and the last term is at most u (r + a). Summed,
    |E - G| <= c' (s + w) + tau' with c' = (2.1 d + 5.2) v and
    tau' = (4 d + 4) (lambda + sigma^2 eta). As c >= c', every column has
    F + r - c' w - tau' <= E <= F + r + (c + c') s + c' w + tau': the
    factor 1 - c takes s out of the lower bound. The k columns with
    F <= K_i thus have E <= K_i + r + (c + c') S + c' w + tau', and so
    has the k-th smallest E. Any column that ties or beats it has
    F <= K_i + (c + c') S + 2 c' w + 2 tau', r cancelling, at least
    (c - c') (S + w) + 2 (tau - tau') below the exact bound
    K_i + 2c (S + w) + 2 tau. Since |K_i| <= 2.1 (S + w) + 2 tau', the
    float64 bound fl(fl(K_i + fl(2c fl(S + w))) + 2 tau) is within
    6 u (S + w + tau) + 3 eta of it, which c - c' >= 115 v and
    tau >= 2^24 tau' cover; rounding it up to a float32, by the cast and
    then one step towards +inf, only raises it, and the float32 compare
    is exact. So every column that ties or beats the k-th distance is a
    candidate, and the (distance, row index) answer is the one over all
    n columns. The summation order and thread count of the BLAS product
    can change only which extra columns are candidates, never the
    answer. Without its sigma^2 term, tau misses E's subnormal error:
    from training rows 1.1832 2^-537 and 2^-537 both distances to the
    query 0 round to 2^-1074, so k = 1 must return row 0, which F puts
    far above row 1. S / sigma^2 + W <= 2^1000 keeps every E finite, and
    w <= 2^100 keeps |L_j| at most about 2^51, F below 2^68 and the bound
    below 2^102. w is taken in sigma units, not as sigma^2 W: W underflows
    to 0 where every |q'_j| is below about 1.5e-162, while a large sigma
    can make sigma q' far too large for float32. A column mean or a norm
    that is not finite leaves S not finite, and every row then takes the
    exact loop.

    Why group minima give K_i. The argument above uses two facts about
    K_i only: at least k columns have F <= K_i, and K_i is one of row i's
    F values, which bounds |K_i|. Any K_i that k columns reach keeps both,
    and a larger K_i only admits more candidates, each ranked by its exact
    distance. The groups are disjoint and G >= k, so the k smallest group
    minima are F values at k distinct columns, and the k-th of them is
    such a K_i: at r = 1, the k-th smallest F. It exceeds the k-th smallest
    F over all n only where two of the k smallest share a group; no two
    consecutive columns do, so sorted or clustered rows spread over groups.
    """

    def __init__(self, points, metric):
        super().__init__(points, metric)
        if metric is DistanceMetric.EUCLIDEAN:
            self._slack = (4 * self.dim + 128) * 2.0**-24
            with np.errstate(over="ignore", invalid="ignore"):  # S is then inf or nan
                self._mean = points.mean(axis=0)
                centered = points - self._mean
                # sigma = 2^-e takes every centered coordinate below 1 in magnitude;
                # e >= -1022 keeps sigma a float
                exponent = np.frexp(max(centered.max(), -centered.min()))[1]
                self._scale = 2.0 ** -max(int(exponent), -1022)
                centered *= self._scale
                norms = np.einsum("ij,ij->i", centered, centered)
                self._scaled_max = norms.max()
                self._max_norm = self._scaled_max / self._scale / self._scale
                self._floor = (self.dim + 2) * (2.0**-100 + self._scale * self._scale * 2.0**-1000)
            self._norms = (norms * (1.0 - self._slack)).astype(np.float32)

    def _search(self, q, k):
        """The k nearest rows to one query ``q`` by the scalar distance."""
        rank = _RANKED[self.metric]
        internal = np.array([rank(point, q) for point in self._columns.T], dtype=np.float64)
        order = np.argsort(internal, kind="stable")[:k].astype(np.int64)
        return order, internal[order]

    def _search_rows(self, rows, k, indices, distances):
        m, n = rows.shape[0], self.n_points
        block = max(1, _BLOCK_BYTES // (8 * n))
        acc = np.empty(min(block, m) * n)
        scratch = np.empty_like(acc)
        mask = np.empty(acc.shape, dtype=bool)
        exact = np.arange(m)
        if (self.metric is DistanceMetric.EUCLIDEAN and self.dim <= 2**16
                and self._max_norm <= _FILTER_LIMIT):
            centered = rows - self._mean
            spread = np.einsum("ij,ij->i", centered, centered)
            # w in sigma units: sigma^2 W reads 0 where W underflows, however large sigma q' is
            centered *= self._scale
            scaled = np.einsum("ij,ij->i", centered, centered)
            filtered = (self._max_norm + spread <= _FILTER_LIMIT) & (scaled <= 2.0**100)
            fast = np.flatnonzero(filtered)
            if fast.size:
                # [Y; norms], made per call so that the index holds one copy of its points;
                # at 20000 x 8 a multiply and then a cast took 134 us, a casting multiply 168
                points = np.empty((self.dim + 1, n), dtype=np.float32)
                for column, mean, out in zip(self._columns, self._mean, points):
                    out[:] = np.multiply(np.subtract(column, mean, out=acc[:n]), self._scale,
                                         out=acc[:n])
                points[-1] = self._norms
                lhs = np.ones((fast.size, self.dim + 1), dtype=np.float32)
                np.multiply(centered[fast], -2.0, out=lhs[:, :-1])  # rounded once, to float32
                del centered  # the blocks read lhs: 62 KiB less peak at 20000 x 8, 1000 rows
                # T = fl(fl(2c) fl(S + w)), in place of w
                slack = np.multiply(np.add(scaled, self._scaled_max, out=scaled),
                                    2 * self._slack, out=scaled)[fast]
                rounds = max(1, n // (_GROUPS_PER_K * k))
                blocks = (self._filter_block(fast[start:start + block], lhs[start:start + block],
                                             slack[start:start + block], k, rounds, points,
                                             acc, scratch, mask)
                          for start in range(0, fast.size, block))
                self._rank(rows, blocks, k, indices, distances, acc, scratch, mask)
            exact = np.flatnonzero(~filtered)
        for start in range(0, exact.size, block):
            sel = exact[start:start + block]
            b = sel.size
            dist = self._distances(rows[sel], None, _view(acc, b, n), _view(scratch, b, n))
            indices[sel], distances[sel] = _nearest_k(dist, k, _view(scratch, b, n),
                                                      _view(mask, b, n))

    def _filter_block(self, sel, lhs, slack, k, rounds, points, acc, scratch, mask):
        """The candidate block (sel, columns, counts, None) of the
        euclidean filter for the query rows ``sel``; see the class
        docstring. ``lhs`` holds the rows [fl32(-2 sigma q'), 1] and
        ``slack`` T of the rows ``sel``, ``points`` is the float32 copy
        [Y; fl32(s (1 - c))], and K_i comes from the minima of F over the
        n // ``rounds`` column groups."""
        b, n = sel.size, self.n_points
        approx = _view(acc.view(np.float32), b, n)
        step = max(1, _PRODUCT_SIZE // (b * lhs.shape[1]))
        for s in range(0, n, step):
            np.matmul(lhs, points[:, s:s + step], out=approx[:, s:s + step])
        groups = n // rounds  # column j < rounds G is in group j mod G
        minima = _view(scratch.view(np.float32), b, groups)  # in scratch, also where G = n
        np.minimum.reduce(approx[:, :rounds * groups].reshape(b, rounds, groups), 1, out=minima)
        minima.partition(k - 1, axis=1)
        bound = minima[:, k - 1] + slack + 2 * self._floor
        # rounded up to float32: a float64 bound would promote the whole (b, n) compare
        bound = np.nextafter(bound.astype(np.float32), np.float32(np.inf))
        # flatnonzero: on a (1, 100000) mask 2-d nonzero took 0.3-1.2 ms, this 0.03-0.09 ms
        row, col = np.divmod(np.flatnonzero(
            np.less_equal(approx, bound[:, None], out=_view(mask, b, n))), n)
        return sel, col, np.bincount(row, minlength=b), None


class KdTreeIndex(_IndexBase):
    """Exact kd-tree in flat arrays, searched a block of queries at a time.

    Build: in the (d, n) column-major array that both backends hold.
    Level by level, every node splits its contiguous range of columns in
    two with ``argpartition`` on its widest-spread axis, until the 2^D leaves
    hold at most _LEAF_SIZE points or D is _TREE_MAX_DEPTH; a node one point
    short of the level's widest is padded with +inf, which partitions into
    the right half and is dropped there. Each level reorders the array in place
    by its local order, so at the end it holds the points in leaf order.
    Kept are that array, the training row behind each column, the per-node
    split (axis, value) in heap order, the per-leaf bounding boxes
    ``lo``/``hi`` and each leaf's range. Valid for the two
    axis-decomposable metrics, euclidean and manhattan.

    Search, the query-block form of dual-tree search (Gray & Moore, NIPS
    2000): every query walks down to its home leaf in D vectorized steps,
    and the rows are sorted by home leaf, so consecutive rows are close in
    space. A sub-block takes up to _TREE_BLOCK_ROWS consecutive rows and
    ends early where the next row's home leaf leaves the subtree of
    2^_TREE_BLOCK_LEVELS leaves that holds its first row's: its rows then
    lie in that subtree's cell, so no sub-block straddles a split above it
    and keeps leaves on both of its sides in step 2. A block takes
    consecutive sub-blocks of one subtree, bounded in one pass of step 2,
    while its rows times the live leaves of their union stay at most C / 2,
    C the entries of a _BLOCK_BYTES // 4 buffer: the size of the buffer
    halves that step 3's per-row bound matrix is written into. Steps 1 and
    2 run before the block loop, each in a few large vectorized passes:

    1. seed each query's bound with the k-th smallest distance to the first
       max(2k, g s) real points (at most n, shifted left to end by the last)
       of its home leaf's aligned subtree of g leaves: s is the smallest leaf
       size, g the least power of two with g s >= 2k, at most the leaf count;
    2. keep, per sub-block, the leaves whose box-to-box bound from the
       sub-block's query box is ``<=`` the sub-block's largest seed bound;
       a block's live leaves are the union of its sub-blocks';
    3. take as candidates the points of every (query, live leaf of its
       block) pair whose point-to-box bound (Friedman, Bentley & Finkel,
       ACM TOMS 1977) is ``<=`` that query's seed bound;
    4. hand them, with each query's seed bound, to ``_rank``, the
       brute-force filter's last step, which computes each candidate's
       distance once, drops those above their query's seed bound, and
       ranks the rest of consecutive blocks together, breaking ties on the
       training-row index.

    The seed bound is the k-th distance among real points, so it is at or
    above the true k-th distance, and by the module docstring's argument
    every point at or below the true k-th distance sits in a scanned leaf.
    The cut in step 4 is exact too: ``_rank`` computes each distance by
    the IEEE steps of the seed, so the k seed points pass ``<=`` again, and
    every point that ties or beats the true k-th distance is at or below
    the seed bound. How rows are cut into sub-blocks and blocks changes no
    candidate: a query's seed window and bound depend on its home leaf
    alone, and it scans exactly the leaves whose point-to-box bound is
    within its seed bound. Step 2 keeps every such leaf for its sub-block
    (the sub-block's query box holds the query, and the sub-block's
    largest seed bound is at or above its own), and its block's live
    leaves are a superset of its sub-block's, in the same leaf order.
    At 8000 x 3 and k 76, a query scans about 415 points and ranks 150.
    Step 3 scans a block's rows once, and yields them in pieces of
    max(1, C // c) rows, c the largest candidate count of the block's
    rows: a piece's padded candidates fit one buffer unless one row alone
    needs more. ``_rank`` ranks groups of pieces in the seed buffers: a
    group holds at most 4 _RANK_ENTRIES entries, half the default cap,
    unless one piece alone holds more.
    """

    def __init__(self, points, metric):
        super().__init__(points, metric)
        n, depth = self.n_points, 0
        while -(-n >> depth) > _LEAF_SIZE and depth < _TREE_MAX_DEPTH:  # ceil(n / 2^depth)
            depth += 1
        columns, ids, sizes = self._columns, np.arange(n), np.array([n])
        axes, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for _ in range(depth):
            # Sizes at one level differ by at most 1, so the nodes fit one
            # (nodes, widest) matrix; a short node's last slot is the +inf pad, column n.
            starts = np.cumsum(sizes) - sizes
            with np.errstate(over="ignore"):  # a spread past float range is inf, still the widest
                axis = np.argmax(np.maximum.reduceat(columns, starts, axis=1)
                                 - np.minimum.reduceat(columns, starts, axis=1), axis=0)
            width = int(sizes.max())
            half = width // 2
            src = starts[:, None] + np.arange(width)  # column of each slot
            src[sizes < width, -1] = n
            vals = np.take(columns, axis[:, None] * n + src, mode="clip")
            vals[sizes < width, -1] = np.inf
            part = np.argpartition(vals, half, axis=1)
            part += np.arange(0, part.size, width)[:, None]
            axes.append(axis)
            values.append(np.take(vals, part[:, half]))
            src = np.take(src, part)
            src = src[src < n]
            for row in columns:  # 1-d takes; take(axis=1) copies item by item, ~4x slower
                row[:] = np.take(row, src)
            ids = np.take(ids, src)
            sizes = np.column_stack([np.full(len(sizes), half), sizes - half]).ravel()
        starts = np.cumsum(sizes) - sizes
        self._depth = depth
        self._split_axis, self._split_value = np.concatenate(axes), np.concatenate(values)
        self._leaf_start, self._leaf_size = starts, sizes
        self._lo = np.minimum.reduceat(columns, starts, axis=1)
        self._hi = np.maximum.reduceat(columns, starts, axis=1)
        self._ids = ids

    def _home_leaves(self, rows):
        """The leaf each query row reaches by walking down the splits."""
        node = np.zeros(rows.shape[0], dtype=np.intp)
        every = np.arange(rows.shape[0])
        for _ in range(self._depth):
            right = rows[every, self._split_axis[node]] >= self._split_value[node]
            node = 2 * node + 1 + right
        return node - ((1 << self._depth) - 1)

    def _candidates(self, scan, live):
        """The leaf-order position of each point of each (row, scanned
        leaf) pair of ``scan``, in row order."""
        leaf = live[np.flatnonzero(scan) % live.size]  # 2-d nonzero: 22 against 8 us at (32, 160)
        size = self._leaf_size[leaf]
        first = np.cumsum(size) - size  # each pair's first slot in the flat list
        return np.repeat(self._leaf_start[leaf] - first, size) + np.arange(int(size.sum()))

    def _search_rows(self, rows, k, indices, distances):
        cap = _BLOCK_BYTES // 4 // 8  # entries per block buffer
        dist_buf, work_buf = np.empty(cap), np.empty(cap)
        self._rank(rows, self._blocks(rows, k, dist_buf, work_buf), k, indices, distances,
                   dist_buf, work_buf, np.empty(cap, dtype=bool))

    def _blocks(self, rows, k, dist_buf, work_buf):
        """Yield the candidate block (sel, positions, counts, bound) of
        each piece of each block of query rows, seeded in ``dist_buf`` and
        ``work_buf``, whose size caps each piece's padded candidates."""
        m, n, cap = rows.shape[0], self.n_points, dist_buf.size
        if m == 0:  # reduceat takes no empty index list
            return
        home = self._home_leaves(rows)
        order = np.argsort(home, kind="stable")
        home = home[order]
        # 2k seed points bound the k-th distance closely enough to cut the scan to a few k
        # points per row; the smallest aligned subtree that holds them keeps them in one cell.
        leaves, least = self._leaf_size.size, int(self._leaf_size.min())
        g = 1
        while g * least < 2 * k and g < leaves:
            g *= 2
        width = min(n, max(2 * k, g * least))
        window = np.minimum(self._leaf_start[home - home % g], n - width)
        # The passes below fill dist_buf and, as scratch and seed positions, the halves of
        # work_buf: allocated, their matrices took the sweep shape's peak from 3.7 to 4.2 MiB.
        lower, upper = work_buf[:cap // 2], work_buf[cap // 2:]

        def box_bounds(lo, hi, q_lo, q_hi):
            shape = q_lo.shape[0], lo.shape[1]
            return _box_bounds(lo, hi, q_lo, q_hi, self.metric,
                               *(_view(buf, *shape) for buf in (dist_buf, lower, upper)))

        bound = np.empty(m)
        step = max(1, cap // 2 // width)
        for s in range(0, m, step):
            b = min(step, m - s)
            positions = np.add(window[s:s + b, None], np.arange(width),
                               out=_view(upper.view(np.intp), b, width))
            seed = self._distances(rows[order[s:s + b]], positions, _view(dist_buf, b, width),
                                   _view(lower, b, width))
            seed.partition(k - 1, axis=1)
            bound[s:s + b] = seed[:, k - 1]
        # A sub-block takes up to _TREE_BLOCK_ROWS rows and ends where its rows leave one
        # subtree of 2^_TREE_BLOCK_LEVELS leaves.
        first = np.searchsorted(home, (home >> _TREE_BLOCK_LEVELS) << _TREE_BLOCK_LEVELS)
        starts = np.flatnonzero((np.arange(m) - first) % _TREE_BLOCK_ROWS == 0)
        ends = np.append(starts[1:], m)
        step = max(1, cap // 2 // leaves)
        for c in range(0, starts.size, step):
            # the leaves whose box is within each sub-block's largest seed bound of its query box
            at, chunk = starts[c:c + step] - starts[c], slice(starts[c], ends[c:c + step][-1])
            q = rows[order[chunk]]
            reach = np.maximum.reduceat(bound[chunk], at)
            near = box_bounds(self._lo, self._hi, np.minimum.reduceat(q, at),
                              np.maximum.reduceat(q, at)) <= reach[:, None]
            # A block takes consecutive sub-blocks of one subtree while its rows x the live
            # leaves of their union fit a buffer half, where the scan's bounds are written.
            blocks = []
            for near_leaves, start, stop in zip(near, starts[c:c + step], ends[c:c + step]):
                if blocks and first[start] == first[blocks[-1][0]]:
                    union = blocks[-1][2] | near_leaves
                    if (stop - blocks[-1][0]) * np.count_nonzero(union) <= cap // 2:
                        blocks[-1] = blocks[-1][0], stop, union
                        continue
                blocks.append((start, stop, near_leaves))
            for start, stop, union in blocks:
                live = np.flatnonzero(union)
                sel, q_bound = order[start:stop], bound[start:stop]
                q = rows[sel]
                # scan and counts are new arrays: _rank reuses the buffers between pieces
                scan = box_bounds(self._lo[:, live], self._hi[:, live], q, q) <= q_bound[:, None]
                counts = scan @ self._leaf_size[live]
                p = max(1, cap // int(counts.max()))  # rows whose padded candidates fit a buffer
                for s in range(0, sel.size, p):
                    yield (sel[s:s + p], self._candidates(scan[s:s + p], live), counts[s:s + p],
                           q_bound[s:s + p])


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
