"""Property tests for the blocked brute-force kernel behind ``query``.

``BruteForceIndex.query(Q, k)`` scans B query rows per block. With the
block byte cap patched so that B is 1, 2 or 3 rows and the query count m
not a multiple of B, every case crosses block edges. Each result must equal,
byte for byte, the per-row reference scan ``BruteForceIndex._search`` and,
for euclidean and manhattan, the kd-tree. Inputs come from small grids so
that duplicated rows and mass distance ties occur, mixed with arbitrary
floats whose sums round, along with n = 1, k = n, subnormal coordinates,
squared distances that all overflow to inf, a 1.5e307 scale at which
manhattan distances overflow to inf and tie the inf that pads
candidate rows, and hamming codes. Derandomized and capped at a few
examples per case. The exact loop is checked to copy no training rows,
and the euclidean index to hold one copy of its points and to keep its
filter narrow on points offset by 1e9, 1e12, 1e13 and 1e15 spreads.

The euclidean filter of ``BruteForceIndex`` (a matmul picks candidates,
the scalar-order distances rank them) is checked the same way on hostile
families: cancellation under a common offset, rows a few ulps apart,
duplicates that tie at the k-th distance, integer grids, subnormal and
1e-160 scales, 1e150 and 1e160 scales, and one +-1e300 row that sends
every query to the exact loop. With the filter's constants c and tau set
to 0, the integer-grid, subnormal and 1e-160 families fail. Three more families
patch the per-k group constant so that K_i comes from the minima of F
over G groups of r > 1 columns each, and check that the filter takes
that r: every member of all but k - 1 groups far from every query (nearly
every column is a candidate), a tie at the k-th distance split between a
group's minimum and another member of the group or a column past r G,
which is in no group, and queries that copy only columns past r G. With
the minima partitioned at k - 2 instead of k - 1, the tie-split family
fails.
The filter's float32 error terms have cases of their own, on both
backends: a tie at the k-th distance that only subnormal distances make
(training rows 1.1832 2^-537 and 2^-537, query 0, k 1; with tau lacking
its sigma^2 term the filter returns row 1), a column of spread 1e-30 or
1e-44 next to a grid column, so that float32 loses the only column that
orders tied rows, spreads of 1e-300 and 1e150, and a query 2^55 spreads
from the mean, which must take the exact loop, as must a query 1e87
spreads out whose squared distance from the mean underflows to 0, while
one 2^40 spreads away takes the filter. At d = 16, where the product's
inner dimension is d + 1 = 17 with the norms as its last term, six of the
families must give the per-row scan's bytes with every product cut into
column slices; with the norms row or the ones column of the product
zeroed, these and dozens more fail. Queries that alternate between
copies of training rows and a far point, 2^10 to 2^20 spreads out,
whose nearest rows lie on a shell with radii under 1e-7 apart, check
that each row's bound takes its own slack T = 2c (S + w): F's float32
rounding reorders the shell by more than the slack of a near row, so a
T shifted or reversed by one row fails.

``KdTreeIndex.query`` is checked the same way on trees with two or more
levels (n from 17 to 300, d from 1 to 8), with the tree's query-block
row count, its subtree levels and its per-block buffer cap patched so
that m crosses several blocks, blocks end at every leaf's edge or at no
subtree's edge, and blocks are yielded in pieces of one block scan.
There, and at the default settings on normal 20000 x 8, each query row
must reach the per-row point-to-box scan once, and each piece must be
one row or fit its padded candidates in the buffer cap. The build's depth
cap is patched to 0, 1 or 2 levels too, so that leaves hold far more than
_LEAF_SIZE points, as they do past 2^14 rows. Every row's seed bound, as
the blocks carry it, must be the k-th smallest scalar distance over its
window in the aligned subtree around its home leaf, with the block
settings at their defaults and patched. On a 2-d clustered tree of 2^10
leaves, every block's rows must share one subtree of 2^_TREE_BLOCK_LEVELS
leaves, and the blocks together must take the rows in home-leaf order.
On that tree, sub-blocks must merge into blocks at the default buffer cap
and at 16 times it, each merged block's rows times live leaves within half
a buffer, and none at a 40-entry cap; at all three caps the answers must
equal brute force on every row and the per-row scan on 20 rows spread
over the home-leaf order.
The kd build itself is checked array by array against a row-major
reference build kept in this file, at every depth cap, and the invariant
its pruning rests on directly: no leaf's box bound exceeds the computed
distance of any point in the leaf, also where squares underflow or
overflow. At the density job's shape (100000 x 2, k 10) the default tree
must have 2^10 leaves, equal brute force byte for byte and peak below
1.5 MiB per query; trees of up to 2^14 rows, the sweep's 8000 among
them, must be the ones an uncapped build makes, array for array.

Both backends hand their candidate blocks to one ranker, which ranks
consecutive blocks as one group. With its group size patched so that
every block is ranked alone, so that some groups are cut before a wide
block, and so that all of a query's blocks are ranked as one group, the
hostile families and the kd-tree cases must give the bytes of the
per-row scan on both backends. On synthetic blocks, a group must be
ranked as soon as it holds that size, and cut exactly where the next
block would take it past four times that size. A call count on
20000 x 8 keeps the filter's 6-row blocks from being ranked one by one.
In the hostile-family test the filter's product runs in many column
slices.

The ranker's last step, ``_nearest_k``, sorts each row on one complex
key, the distance as real part and the training row as imaginary part;
on small matrices of four values (inf among them), with shuffled
training rows or the column as the row, it must give Python's sorted
(distance, row) pairs, and with a zero imaginary part, or with the
rows padded by complex(0, 0) where one ties its k-th value, it does
not. The kd-tree drops candidates above their row's seed bound: on an
integer grid, where points outside the seed window tie the k-th
distance, the answers must stay those of the per-row scan while the cut
drops candidates, and a strict ``<`` cut fails. Tracemalloc guards keep
the sweep-shape kd query (8000 x 3, k 76, 2000 rows) below 3.75 MiB and
the normal 20000 x 8, k 10 one (300 rows) below 2 MiB, and the brute-force
query at 20000 x 8, k 10 and 1000 rows below 3.25 MiB, with r = 31 rounds
and with r = 1. On that shape the euclidean filter must admit at most
1.5 k candidates per row.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsweep import neighbors
from knnsweep.distance import DistanceMetric
from knnsweep.neighbors import BruteForceIndex, KdTreeIndex

PROPERTY_SETTINGS = settings(max_examples=10, derandomize=True, database=None, deadline=None)
NUMERIC_METRICS = [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN]


@st.composite
def kernel_cases(draw, categorical=False):
    """(training points, query rows, k, rows per block) from a small pool."""
    d = draw(st.integers(1, 4))
    codes = (st.integers(0, 3) if categorical else
             st.one_of(st.integers(-1, 2), st.floats(-3.0, 3.0, allow_nan=False)))
    pool = draw(st.lists(st.lists(codes, min_size=d, max_size=d), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    points = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                             min_size=n, max_size=n))]
    block = draw(st.integers(1, 3))
    # m is never a multiple of B (for B = 1, at least two blocks)
    m = block * draw(st.integers(0, 3)) + draw(st.integers(1, max(1, block - 1)))
    if block == 1:
        m += 1
    queries = draw(st.lists(st.one_of(st.sampled_from(points),
                                      st.lists(codes, min_size=d, max_size=d)),
                            min_size=m, max_size=m))
    scale = 1.0 if categorical else draw(
        st.sampled_from([1.0, 0.37, 1e-308, 5e-324, 1e200, 1.5e307]))
    return (np.array(points, dtype=np.float64) * scale,
            np.array(queries, dtype=np.float64) * scale,
            draw(st.one_of(st.just(n), st.integers(1, n))), block)


# Every squared distance overflows to inf, so all neighbors tie.
PINNED_ALL_INF = (np.array([[1e200], [-1e200]]), np.array([[0.0], [3e200], [0.0]]), 2, 2)
# n = 1 and k = n.
PINNED_ONE_ROW = (np.array([[0.5, -1.0]]), np.array([[0.5, -1.0], [0.0, 0.0]]), 1, 1)
# Mass ties: every training row equal, every query a copy or at one distance.
PINNED_TIES = (np.zeros((7, 2)), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0],
                                           [0.0, 0.0], [1.0, 1.0]]), 3, 3)
# Subnormal coordinates, where euclidean squares underflow to 0.
PINNED_SUBNORMAL = (np.array([[0, 0], [1, 0], [1, 0], [2, 1]]) * 5e-324,
                    np.array([[1, 0], [0, 1], [2, 2], [1, 1]]) * 5e-324, 3, 3)


def _query_blocked(index, queries, k, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_BLOCK_BYTES", 8 * index.n_points * block)
        return index.query(queries, k)


def _assert_equals_per_row_oracle(result, index, queries, k):
    assert result.indices.shape == result.distances.shape == (len(queries), min(k, index.n_points))
    for i, q in enumerate(queries):
        with np.errstate(over="ignore"):
            indices, internal = index._search(q, min(k, index.n_points))
        distances = np.sqrt(internal) if index.metric is DistanceMetric.EUCLIDEAN else internal
        assert result.indices[i].tobytes() == indices.tobytes()
        assert result.distances[i].tobytes() == distances.tobytes()


@pytest.mark.parametrize("metric", NUMERIC_METRICS)
@PROPERTY_SETTINGS
@given(case=kernel_cases())
@example(case=PINNED_ALL_INF)
@example(case=PINNED_ONE_ROW)
@example(case=PINNED_TIES)
@example(case=PINNED_SUBNORMAL)
def test_blocked_kernel_equals_per_row_scan_and_kd_tree(case, metric):
    points, queries, k, block = case
    index = BruteForceIndex(points, metric)
    result = _query_blocked(index, queries, k, block)
    _assert_equals_per_row_oracle(result, index, queries, k)
    tree = KdTreeIndex(points, metric).query(queries, k)
    assert result.indices.tobytes() == tree.indices.tobytes()
    assert result.distances.tobytes() == tree.distances.tobytes()


@pytest.mark.parametrize("metric", [DistanceMetric.MANHATTAN, DistanceMetric.EUCLIDEAN])
def test_exact_loop_copies_no_training_rows(metric):
    # numpy reports its buffers to tracemalloc; a per-call copy of the
    # training rows alone would take n d 8 bytes
    n, d = 20_000, 8
    rng = np.random.default_rng(5)
    points = rng.normal(size=(n, d))
    points[7] = rng.choice([-1e300, 1e300], size=d)  # euclidean rows then skip the filter
    index = BruteForceIndex(points, metric)
    if metric is DistanceMetric.EUCLIDEAN:
        assert index._max_norm > neighbors._FILTER_LIMIT
    queries = rng.normal(size=(3, d))
    tracemalloc.start()
    try:
        index.query(queries, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


def test_euclidean_index_holds_one_copy_of_its_points():
    # the filter's product reads a float32 copy made per query call and dropped
    # when it returns; the index adds the column means and one float32 n-vector,
    # not a second copy
    n, d = 20_000, 8
    points = np.random.default_rng(6).normal(size=(n, d))
    tracemalloc.start()
    try:
        index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert index._columns.nbytes == n * d * 8
    assert held < n * d * 8 + 2 * n * 8


def test_equal_roots_keep_their_squared_order():
    # squared distances 1 + 2^-52 and 1 both square-root to 1.0
    points, q = np.array([[1.0, 2.0**-26], [1.0, 0.0]]), np.zeros(2)
    brute = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    indices, internal = brute._search(q, 1)
    assert (indices.tolist(), internal.tolist()) == ([1], [1.0])
    for index in (brute, KdTreeIndex(points, DistanceMetric.EUCLIDEAN)):
        ns = index.query(q, 1)
        assert (ns.indices.tolist(), ns.distances.tolist()) == ([1], [1.0])


def test_euclidean_filter_stays_narrow_under_a_large_offset():
    # The filter's product reads centered points, so its bound grows with a
    # query's distance from mu, not with mu: at offsets of 1e9 to 1e15
    # spreads it still admits a few k columns per row, where a filter with
    # no centering at all admits every column.
    n, d = 4000, 4
    rng = np.random.default_rng(11)
    normal = rng.normal(size=(n + 100, d))
    nearest_k = neighbors._nearest_k
    for offset in (1e9, 1e12, 1e13, 1e15):
        rows = normal + offset
        index = BruteForceIndex(rows[:n], DistanceMetric.EUCLIDEAN)
        widths = []

        def recorded(dist, *args):
            widths.append(dist.shape[1])  # brute force pads its candidates to the widest row
            return nearest_k(dist, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_nearest_k", recorded)
            result = index.query(rows[n:], 10)
        assert widths and max(widths) < n // 10, offset
        tree = KdTreeIndex(rows[:n], DistanceMetric.EUCLIDEAN).query(rows[n:], 10)
        assert result.indices.tobytes() == tree.indices.tobytes()
        assert result.distances.tobytes() == tree.distances.tobytes()


def _assert_both_backends_equal_the_per_row_scan(points, queries, k):
    """(result, the query rows the euclidean filter took) of a brute-force
    query whose bytes, and the kd-tree's, equal the per-row scan's."""
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    filtered = []
    filter_block = BruteForceIndex._filter_block

    def counted(self, sel, *args):
        filtered.extend(sel.tolist())
        return filter_block(self, sel, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BruteForceIndex, "_filter_block", counted)
        result = index.query(queries, k)
    _assert_equals_per_row_oracle(result, index, queries, k)
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN).query(queries, k)
    assert result.indices.tobytes() == tree.indices.tobytes()
    assert result.distances.tobytes() == tree.distances.tobytes()
    return result, filtered


def test_filter_keeps_a_tie_that_only_subnormal_distances_make():
    # Both distances to 0 round to 2^-1074, so row 0 wins the tie, but the
    # float32 F puts row 0 far above row 1: only tau's sigma^2 term, which
    # carries the distance's own subnormal error into sigma units, admits it.
    points = np.array([[1.1832 * 2.0**-537], [2.0**-537]])
    result, filtered = _assert_both_backends_equal_the_per_row_scan(points, np.zeros((1, 1)), 1)
    assert filtered == [0]
    assert result.indices.tolist() == [[0]]
    assert result.distances.tolist() == [[np.sqrt(5e-324)]]


@pytest.mark.parametrize("tiny", [1e-30, 1e-44])
def test_filter_ranks_a_column_that_float32_loses(tiny):
    # Next to a grid column of spread 1, a column of spread 1e-30 gives
    # float32 products far below 2^-126, and one of 1e-44 float32-subnormal
    # coordinates. Rows that share the query's grid value tie in F, and only
    # the tiny column orders them by distance.
    rng = np.random.default_rng(26)
    points = np.column_stack([rng.integers(-3, 4, size=300).astype(float),
                              tiny * rng.normal(size=300)])
    queries = np.concatenate([points[rng.integers(0, 300, size=20)],
                              np.column_stack([rng.integers(-3, 4, size=20).astype(float),
                                               tiny * rng.normal(size=20)])])
    result, filtered = _assert_both_backends_equal_the_per_row_scan(points, queries, 7)
    assert sorted(filtered) == list(range(40))


@pytest.mark.parametrize("spread", [1e-300, 1e150])
def test_filter_equals_the_per_row_scan_at_extreme_spreads(spread):
    # sigma reaches 2^997 and 2^-500; at 1e150 rows whose S / sigma^2 + W
    # passes 2^1000 take the exact loop
    rng = np.random.default_rng(27)
    points = rng.normal(size=(200, 3))
    points[:100] = rng.integers(-3, 4, size=(100, 3))
    points *= spread
    queries = np.concatenate([points[rng.integers(0, 200, size=10)],
                              spread * rng.normal(size=(10, 3))])
    _assert_both_backends_equal_the_per_row_scan(points, queries, 5)


def test_query_far_from_the_mean_takes_the_exact_loop():
    # w > 2^100 would bring the float32 product near 2^128: a query 2^55
    # spreads from mu takes the exact loop, one 2^40 spreads away the
    # filter, and both pass the 2^1000 route
    rng = np.random.default_rng(28)
    points = rng.normal(size=(500, 4))
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    queries = np.array([points[3], points[3] + 2.0**55, points[3] - 2.0**40, points[8]])
    assert index._max_norm + np.sum((queries - index._mean) ** 2, axis=1).max() \
        <= neighbors._FILTER_LIMIT
    _, filtered = _assert_both_backends_equal_the_per_row_scan(points, queries, 3)
    assert sorted(filtered) == [0, 2, 3]
    # Spread 1e-250 gives sigma = 2^831, and the query 1e-163 lies about
    # 1e87 spreads out, yet its W = |q'|^2 underflows to 0: w, taken in
    # sigma units, must still send it to the exact loop.
    points, queries = np.array([[0.0], [1e-250]]), np.array([[1e-163]])
    assert np.sum((queries - BruteForceIndex(points, DistanceMetric.EUCLIDEAN)._mean) ** 2) == 0
    result, filtered = _assert_both_backends_equal_the_per_row_scan(points, queries, 1)
    assert filtered == []
    assert result.indices.tolist() == [[0]]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", ["cancellation", "ulp apart", "ties at the k-th",
                                    "integer grid", "subnormal", "1e-160"])
def test_filter_product_carries_the_norms_at_d_16(family, seed):
    # The hostile families draw d from 1 to 8; at d = 16 the product's inner
    # dimension is K = d + 1 = 17, the norms riding as its last term, and
    # the patched slice size cuts every product into slices of 10-30 columns
    rng = np.random.default_rng([16, seed])
    n, d, block = int(rng.integers(40, 200)), 16, int(rng.integers(1, 4))
    rows = _hostile_rows(family, rng, n + 6, d)
    points = rows[:n]
    queries = np.concatenate([rows[n:], points[rng.integers(0, n, size=6)]])
    k = int(rng.integers(1, n + 1))
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    products = []
    filter_block = BruteForceIndex._filter_block

    def counted(self, sel, lhs, slack, k, rounds, copy, *buffers):
        products.append((sel.size, lhs.shape, copy.shape))
        return filter_block(self, sel, lhs, slack, k, rounds, copy, *buffers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BruteForceIndex, "_filter_block", counted)
        mp.setattr(neighbors, "_PRODUCT_SIZE", 3 * 17 * 10)
        result = _query_blocked(index, queries, k, block)
    assert sum(b for b, _, _ in products) == len(queries)
    assert all(lhs == (b, 17) and copy == (17, n) and b <= 3 for b, lhs, copy in products)
    _assert_equals_per_row_oracle(result, index, queries, k)
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN).query(queries, k)
    assert result.indices.tobytes() == tree.indices.tobytes()
    assert result.distances.tobytes() == tree.distances.tobytes()


@pytest.mark.parametrize("d", [8, 16])
def test_each_filtered_row_takes_its_own_slack(d):
    # Queries alternate between copies of training rows and a far point
    # q = M (1, ..., 1) / sqrt(d), M = 2^10 to 2^20, and 40 training rows lie
    # on a shell about q whose radii differ by under 1e-7: there, F's float32
    # rounding, of order 2^-24 |L| per term, reorders rows by more than one
    # float32 step. The far rows' own 2c (S + w) covers it; a near row's,
    # about 2^-15, does not, so a far row that took its neighbor's slack
    # would drop a row of its k nearest.
    for seed in range(8):
        rng = np.random.default_rng([18, seed])
        n, radius = 200, 2.0 ** int(rng.integers(10, 21))
        points = rng.normal(size=(n, d))
        axis = np.ones(d) / np.sqrt(d)
        shell = rng.choice(n, size=40, replace=False)
        tangent = rng.normal(size=(40, d))
        tangent -= np.outer(tangent @ axis, axis)
        tangent *= rng.uniform(0, 1, size=(40, 1)) / np.linalg.norm(tangent, axis=1)[:, None]
        radii = radius - 2 + 1e-7 * rng.random((40, 1))
        far = radius * axis
        inward = np.sqrt(radii**2 - (tangent * tangent).sum(1, keepdims=True))
        points[shell] = far - inward * axis + tangent
        queries = np.empty((12, d))
        queries[0::2], queries[1::2] = points[rng.integers(0, n, size=6)], far
        k = int(rng.integers(2, 30))
        index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
        tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN).query(queries, k)
        for block in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                filtered, _ = _record_filter_calls(mp, None)
                result = _query_blocked(index, queries, k, block)
            assert sum(filtered) == len(queries)
            _assert_equals_per_row_oracle(result, index, queries, k)
            assert result.indices.tobytes() == tree.indices.tobytes()
            assert result.distances.tobytes() == tree.distances.tobytes()


# Families on the filter's column groups (column j < r G is in group j mod G),
# with the per-k group constant patched so that r > 1.
GROUPED_FAMILIES = ("far groups", "tie split by the group minima", "copies of ungrouped columns")
HOSTILE_FAMILIES = ("cancellation", "ulp apart", "ties at the k-th", "integer grid",
                    "subnormal", "1e-160", "1e150", "1e160", "one huge row", *GROUPED_FAMILIES)
# Families whose every query takes the euclidean filter; "one huge row"
# sends every query to the exact loop instead.
FILTERED_FAMILIES = ("cancellation", "ulp apart", "ties at the k-th", "integer grid",
                     "subnormal", "1e-160", *GROUPED_FAMILIES)


def _hostile_rows(family, rng, rows, d):
    """``rows`` rows of d coordinates from one hostile family."""
    if family == "cancellation":  # a common offset of 1e8, a spread of 1e-4
        return 1e8 + 1e-4 * rng.normal(size=(rows, d))
    if family == "ulp apart":
        base = rng.normal(size=d)
        return base + np.spacing(base) * rng.integers(-2, 3, size=(rows, d))
    if family == "ties at the k-th":  # three points, each repeated
        return (rng.integers(-2, 3, size=(3, d)) * 0.37)[rng.integers(0, 3, size=rows)]
    if family == "integer grid":
        return rng.integers(-3, 4, size=(rows, d)).astype(float)
    if family == "subnormal":
        return rng.integers(0, 5, size=(rows, d)) * 5e-324
    if family == "one huge row":
        points = rng.normal(size=(rows, d))
        points[rng.integers(0, rows - 4)] = rng.choice([-1e300, 1e300], size=d)
        return points
    # "1e-160", "1e150", "1e160": normal rows and grid rows with ties, scaled
    points = rng.normal(size=(rows, d))
    grid = rng.random(rows) < 0.5
    points[grid] = rng.integers(-3, 4, size=(int(grid.sum()), d))
    return points * float(family)


def _grouped_case(family, rng):
    """(training points, query rows, k, r) for a family of
    ``GROUPED_FAMILIES``. With the per-k group constant patched to 1, the
    filter takes r = n // k > 1 rounds of G = n // r >= k groups: n is
    r k plus less than k, and the last n - r G columns are in no group."""
    k, r = int(rng.integers(1, 16)), int(rng.integers(2, 5))
    if family == "copies of ungrouped columns":  # n - r G = n mod r must be at least 1
        k = max(k, 2)
        extra = int(rng.choice([e for e in range(1, k) if e % r]))
    else:
        extra = int(rng.integers(0, k))
    n = r * k + extra
    groups = n // r
    d, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    if family == "far groups":  # K_i is huge, so nearly every column is a candidate
        points = rng.normal(size=(n, d))
        near = rng.choice(groups, size=k - 1, replace=False)
        far = (np.arange(n) < r * groups) & ~np.isin(np.arange(n) % groups, near)
        points[far] += 1e3
        fresh = rng.normal(size=(m, d))
        copies = points[rng.choice(np.flatnonzero(~far) if not far.all() else n, size=m)]
        return points, np.where(rng.random((m, 1)) < 0.5, fresh, copies), k, r
    if family == "tie split by the group minima":
        # k - 1 rows at the query, then rows at one distance: two members of
        # one group, or one member and a column in no group; then far rows.
        # Grid coordinates keep the tie exact
        q = rng.integers(-3, 4, size=d).astype(float)
        tie = q + np.eye(d)[0]
        points = q + 3.0 * rng.choice([-1.0, 1.0], size=(n, d))
        first = int(rng.integers(0, groups))
        second = (int(rng.integers(r * groups, n)) if n > r * groups and rng.random() < 0.5
                  else first + groups * int(rng.integers(1, r)))
        rest = rng.permutation(np.setdiff1d(np.arange(n), [first, second]))
        points[[first, second, *rest[:int(rng.integers(0, 3))]]] = tie
        points[rest[len(rest) - k + 1:]] = q
        return points, np.tile(q, (m, 1)), k, r
    # "copies of ungrouped columns": each query is at distance 0 from a
    # column in no group only
    base = ("cancellation", "ulp apart", "integer grid")[int(rng.integers(0, 3))]
    points = _hostile_rows(base, rng, n, d)
    return points, points[rng.integers(r * groups, n, size=m)], k, r


def _record_filter_calls(mp, rounds):
    """Patch, through ``mp``, the per-k group constant to 1 where ``rounds``
    is not None, so that the filter takes r = n // k, and
    ``BruteForceIndex._filter_block`` to record each call; returns the
    lists of each call's query-row count and r."""
    if rounds is not None:
        mp.setattr(neighbors, "_GROUPS_PER_K", 1)
    filtered, received = [], []
    filter_block = BruteForceIndex._filter_block

    def counted(self, sel, lhs, slack, k, r, *buffers):
        filtered.append(len(sel))
        received.append(r)
        return filter_block(self, sel, lhs, slack, k, r, *buffers)

    mp.setattr(BruteForceIndex, "_filter_block", counted)
    return filtered, received


@st.composite
def hostile_cases(draw, family):
    """(training points, query rows, k, rows per block, and the filter's
    rounds r with the per-k group constant patched to 1, or None where it
    is not patched): queries copy training rows or are four fresh rows of
    the same family. Sizes come from the drawn seed, so that derandomized
    runs spread over them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family in GROUPED_FAMILIES:
        points, queries, k, rounds = _grouped_case(family, rng)
        return points, queries, k, int(rng.integers(1, 4)), rounds
    # with n = 1 the huge row would be the mean, at distance 0
    n = 1 if family != "one huge row" and rng.random() < 0.1 else int(rng.integers(2, 200))
    d = int(rng.integers(1, 9))
    rows = _hostile_rows(family, rng, n + 4, d)
    queries = rows[rng.integers(0, n + 4, size=int(rng.integers(1, 13)))]
    k = n if rng.random() < 0.25 else int(rng.integers(1, n + 1))
    return rows[:n], queries, k, int(rng.integers(1, 4)), None


@pytest.mark.parametrize("family", HOSTILE_FAMILIES)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_euclidean_filter_equals_per_row_scan_and_kd_tree_on_hostile_inputs(family, data):
    points, queries, k, block, rounds = data.draw(hostile_cases(family))
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    with pytest.MonkeyPatch.context() as mp:
        filtered, received = _record_filter_calls(mp, rounds)
        # at most 64 products' M*N*K: every product runs in several column slices
        mp.setattr(neighbors, "_PRODUCT_SIZE", 64)
        result = _query_blocked(index, queries, k, block)
    if family in FILTERED_FAMILIES:
        assert sum(filtered) == len(queries)
    if family in GROUPED_FAMILIES:
        assert set(received) == {rounds} and rounds > 1
    if family == "one huge row":
        assert not filtered
    _assert_equals_per_row_oracle(result, index, queries, k)
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN).query(queries, k)
    assert result.indices.tobytes() == tree.indices.tobytes()
    assert result.distances.tobytes() == tree.distances.tobytes()


@PROPERTY_SETTINGS
@given(case=kernel_cases(categorical=True))
def test_blocked_hamming_kernel_equals_per_row_scan(case):
    points, queries, k, block = case
    index = BruteForceIndex(points, DistanceMetric.HAMMING)
    _assert_equals_per_row_oracle(_query_blocked(index, queries, k, block), index, queries, k)


SCALES = (1.0, 0.37, 1e-308, 5e-324, 1e200, 1.5e307)
# kd blocks end at subtrees of 2^levels leaves: 0 leaves blocks of one or two
# rows, and 16 is at least the depth of every tree drawn here, so cuts nothing
TREE_LEVELS = (0, 1, 2, 16)
# kd build depth caps: 0 makes one leaf of every point, 1 and 2 leaves of up to
# 150 and 75 points; no tree drawn here reaches the default
TREE_DEPTHS = (0, 1, 2, neighbors._TREE_MAX_DEPTH)


def _capped_tree(points, metric, depth):
    """A kd-tree built with its depth cap patched to ``depth``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_TREE_MAX_DEPTH", depth)
        return KdTreeIndex(points, metric)


@st.composite
def tree_cases(draw, scales=SCALES):
    """(training points, query rows, k, rows per block, block bytes) for a
    kd-tree of two or more levels unless its depth is capped: grid rows
    with duplicates and mass ties, some arbitrary normal rows, and queries
    that copy training rows, all multiplied by one of ``scales``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    n = draw(st.integers(17, 300))
    points = rng.integers(0, draw(st.sampled_from([1, 2, 3, 6])), size=(n, d)).astype(float)
    free = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    points[free] = rng.normal(0.0, 2.0, size=(int(free.sum()), d))
    m = draw(st.integers(1, 40))
    queries = np.where(rng.random((m, 1)) < 0.5, points[rng.integers(0, n, size=m)],
                       rng.integers(-1, 4, size=(m, d)))
    scale = draw(st.sampled_from(scales))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    # 8 * 4 * c bytes caps each kd-tree block buffer at c float64 entries
    block_bytes = draw(st.sampled_from([neighbors._BLOCK_BYTES, 32, 32 * 40, 32 * 500]))
    return points * scale, queries * scale, k, draw(st.integers(1, 5)), block_bytes


def _query_scanning_each_row_once(tree, queries, k):
    """``tree.query(queries, k)``, checked to pass each query row to the
    per-row point-to-box scan (a ``_box_bounds`` call whose query box is
    the row itself) once, and to yield pieces of one row or whose padded
    candidates fit the buffer cap."""
    scanned, pieces = [], []
    box_bounds, unrecorded = neighbors._box_bounds, KdTreeIndex._blocks

    def counted(lo, hi, q_lo, q_hi, *args):
        if q_lo is q_hi:
            scanned.append(len(q_lo))
        return box_bounds(lo, hi, q_lo, q_hi, *args)

    def recorded(self, *args):
        for block in unrecorded(self, *args):
            pieces.append((block[0].size, int(block[2].max())))
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_box_bounds", counted)
        mp.setattr(KdTreeIndex, "_blocks", recorded)
        result = tree.query(queries, k)
    assert sum(scanned) == len(queries)
    cap = neighbors._BLOCK_BYTES // 4 // 8
    assert all(rows == 1 or rows * widest <= cap for rows, widest in pieces)
    return result


@pytest.mark.parametrize("metric", NUMERIC_METRICS)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=tree_cases(), levels=st.sampled_from(TREE_LEVELS),
       depth=st.sampled_from(TREE_DEPTHS))
def test_multi_level_kd_tree_equals_per_row_scan(case, levels, depth, metric):
    points, queries, k, rows, block_bytes = case
    tree = _capped_tree(points, metric, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_TREE_BLOCK_ROWS", rows)
        mp.setattr(neighbors, "_TREE_BLOCK_LEVELS", levels)
        mp.setattr(neighbors, "_BLOCK_BYTES", block_bytes)
        result = _query_scanning_each_row_once(tree, queries, k)
    _assert_equals_per_row_oracle(result, BruteForceIndex(points, metric), queries, k)


def test_kd_query_scans_each_row_once_at_20000_x_8():
    # rows that a block gave up to the buffer cap used to be scanned again:
    # 5477 scans for these 1000 rows
    rng = np.random.default_rng(2408)
    tree = KdTreeIndex(rng.normal(size=(20_000, 8)), DistanceMetric.EUCLIDEAN)
    _query_scanning_each_row_once(tree, rng.normal(size=(1000, 8)), 10)


def test_kd_blocks_stay_inside_one_subtree():
    # 20000 clustered 2-d points make 2^10 leaves, 4 subtrees of 2^8; rows
    # sorted by home leaf and taken 32 at a time straddle their edges
    rng = np.random.default_rng(22)
    centers = rng.uniform(-20.0, 20.0, size=(3, 2))
    points = centers[rng.integers(0, 3, 20_000)] + rng.normal(0.0, 3.0, size=(20_000, 2))
    queries = centers[rng.integers(0, 3, 2000)] + rng.normal(0.0, 3.0, size=(2000, 2))
    tree, levels = KdTreeIndex(points, DistanceMetric.EUCLIDEAN), neighbors._TREE_BLOCK_LEVELS
    assert tree._depth >= levels + 2
    blocks, unrecorded = [], KdTreeIndex._blocks

    def recorded(self, *args):
        for block in unrecorded(self, *args):
            blocks.append(block[0])
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KdTreeIndex, "_blocks", recorded)
        tree.query(queries, 10)
    home = tree._home_leaves(queries)
    for sel in blocks:
        assert np.unique(home[sel] >> levels).size == 1
    assert np.concatenate(blocks).tobytes() == np.argsort(home, kind="stable").tobytes()


def test_kd_sub_blocks_merge_while_their_scan_fits_a_buffer_half():
    # the tree above: consecutive sub-blocks of one subtree merge while the
    # block's rows x the live leaves of their union stay <= cap // 2. Only a
    # merged block has more than _TREE_BLOCK_ROWS rows, as every sub-block
    # but a subtree's last has that many. A 40-entry cap merges none: 33 rows x 1 leaf > 20
    rng = np.random.default_rng(22)
    centers = rng.uniform(-20.0, 20.0, size=(3, 2))
    points = centers[rng.integers(0, 3, 20_000)] + rng.normal(0.0, 3.0, size=(20_000, 2))
    queries = centers[rng.integers(0, 3, 2000)] + rng.normal(0.0, 3.0, size=(2000, 2))
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN)
    oracle = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    brute = oracle.query(queries, 10)
    # brute force equals the per-row scan elsewhere; the scan takes 50 ms a row here,
    # so it checks 20 rows spread over the home-leaf order
    sample = np.argsort(tree._home_leaves(queries), kind="stable")[::100]
    per_row = [oracle._search(queries[i], 10) for i in sample]
    box_bounds = neighbors._box_bounds
    no_merge = 32 * 40
    for block_bytes in (neighbors._BLOCK_BYTES, no_merge, 1 << 24):
        scans = []

        def counted(lo, hi, q_lo, q_hi, *args):
            if q_lo is q_hi:  # a block's per-row scan of its live leaves
                scans.append((len(q_lo), lo.shape[1]))
            return box_bounds(lo, hi, q_lo, q_hi, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_box_bounds", counted)
            mp.setattr(neighbors, "_BLOCK_BYTES", block_bytes)
            result = tree.query(queries, 10)
        merged = [(rows, live) for rows, live in scans if rows > neighbors._TREE_BLOCK_ROWS]
        assert bool(merged) == (block_bytes != no_merge)
        assert all(rows * live <= block_bytes // 4 // 8 // 2 for rows, live in merged)
        assert result.indices.tobytes() == brute.indices.tobytes()
        assert result.distances.tobytes() == brute.distances.tobytes()
        for i, (indices, internal) in zip(sample, per_row):
            assert result.indices[i].tobytes() == indices.tobytes()
            assert result.distances[i].tobytes() == np.sqrt(internal).tobytes()


def _recorded_seed_bounds(tree, queries, k):
    """Each query row's seed bound, from the (sel, bound) pairs of the
    blocks ``KdTreeIndex._blocks`` yields for ``tree.query``."""
    bounds, counts = np.empty(len(queries)), np.zeros(len(queries), dtype=int)
    unrecorded = KdTreeIndex._blocks

    def recorded(self, *args):
        for block in unrecorded(self, *args):
            bounds[block[0]] = block[3]
            counts[block[0]] += 1
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KdTreeIndex, "_blocks", recorded)
        tree.query(queries, k)
    assert (counts == 1).all()
    return bounds


def _reference_seed_bounds(tree, queries, k):
    """Per row, the k-th smallest scalar distance to the first ``width``
    points of the smallest aligned subtree around its home leaf whose g
    leaves hold 2k points at the smallest leaf size (at most the whole
    tree), width = min(n, max(2k, g * that size)), shifted left where the
    window would pass the last point."""
    n, sizes = tree.n_points, tree._leaf_size
    k = min(k, n)
    g = 1
    while g * sizes.min() < 2 * k and g < sizes.size:
        g *= 2
    width = min(n, max(2 * k, g * int(sizes.min())))
    rank = neighbors._RANKED[tree.metric]
    bounds = []
    for q, home in zip(queries, tree._home_leaves(queries)):
        start = min(int(tree._leaf_start[home - home % g]), n - width)
        dist = sorted(rank(tree._columns[:, c], q) for c in range(start, start + width))
        bounds.append(dist[k - 1])
    return np.array(bounds)


@pytest.mark.parametrize("metric", NUMERIC_METRICS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(case=tree_cases(), levels=st.sampled_from(TREE_LEVELS))
# normal rows, whose seed windows around and inside the home subtree differ
@example(case=(*np.random.default_rng(24).normal(size=(2, 150, 2)), 5, 3, 32 * 40), levels=2)
def test_kd_seed_bound_is_the_kth_distance_in_the_home_subtree_window(case, levels, metric):
    # the seed bound depends on the query and its home leaf alone: blocks of
    # other row counts, subtree cuts or buffer caps, where a block's rows are
    # yielded in one-row and few-row pieces of one block scan, leave it unchanged
    points, queries, k, rows, block_bytes = case
    for depth in TREE_DEPTHS:
        tree = _capped_tree(points, metric, depth)
        expected = _reference_seed_bounds(tree, queries, k).tobytes()
        assert _recorded_seed_bounds(tree, queries, k).tobytes() == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_TREE_BLOCK_ROWS", rows)
            mp.setattr(neighbors, "_TREE_BLOCK_LEVELS", levels)
            mp.setattr(neighbors, "_BLOCK_BYTES", block_bytes)
            assert _recorded_seed_bounds(tree, queries, k).tobytes() == expected


def _ranked_rows(index, queries, k, block, tree_rows, tree_levels, rank_entries):
    """``index.query`` with B = ``block`` brute-force rows per block, the
    kd-tree's block rows, subtree levels and buffer cap patched small, and
    candidate blocks grouped by ``rank_entries``; and the query-row count of
    each group that ``_rank`` ranks (the exact loop, which passes no ids, is
    left out)."""
    rows = []
    nearest_k = neighbors._nearest_k

    def recorded(dist, k, work, keep, ids=None):
        if ids is not None:
            rows.append(len(dist))
        return nearest_k(dist, k, work, keep, ids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_nearest_k", recorded)
        mp.setattr(neighbors, "_RANK_ENTRIES", rank_entries)
        mp.setattr(neighbors, "_TREE_BLOCK_ROWS", tree_rows)
        mp.setattr(neighbors, "_TREE_BLOCK_LEVELS", tree_levels)
        return _query_blocked(index, queries, k, block), rows


@pytest.mark.parametrize("rank_entries", [1, 32, 2**30])
@pytest.mark.parametrize("family", [*HOSTILE_FAMILIES, "tree"])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_grouped_ranking_equals_per_row_scan_on_both_backends(family, rank_entries, data):
    # rank_entries 1 ranks every candidate block alone, 2^30 all of a
    # query's blocks in one verify; at 32 some groups are cut before a wide
    # block would take them past 128 entries; the bytes must not depend on it
    if family == "tree":
        points, queries, k = data.draw(tree_cases())[:3]
        metric, rounds = data.draw(st.sampled_from(NUMERIC_METRICS)), None
    else:
        points, queries, k, _, rounds = data.draw(hostile_cases(family))
        metric = DistanceMetric.EUCLIDEAN
    block, tree_rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    tree_levels = data.draw(st.sampled_from(TREE_LEVELS))
    brute = BruteForceIndex(points, metric)
    tree = _capped_tree(points, metric, data.draw(st.sampled_from(TREE_DEPTHS)))
    with pytest.MonkeyPatch.context() as mp:
        _, received = _record_filter_calls(mp, rounds)
        result, brute_rows = _ranked_rows(brute, queries, k, block, tree_rows, tree_levels,
                                          rank_entries)
        tree_result, tree_rows_ranked = _ranked_rows(tree, queries, k, block, tree_rows,
                                                     tree_levels, rank_entries)
    if rank_entries == 1:
        assert max(brute_rows, default=0) <= block and max(tree_rows_ranked) <= tree_rows
    elif rank_entries == 2**30:
        assert len(brute_rows) <= 1 and tree_rows_ranked == [len(queries)]
    if family in FILTERED_FAMILIES:
        assert sum(brute_rows) == len(queries)
    if family in GROUPED_FAMILIES:
        assert set(received) == {rounds} and rounds > 1
    _assert_equals_per_row_oracle(result, brute, queries, k)
    assert result.indices.tobytes() == tree_result.indices.tobytes()
    assert result.distances.tobytes() == tree_result.distances.tobytes()


def test_brute_force_ranks_many_filter_blocks_per_verify():
    # 20000 x 8 filters 6 query rows per block: ranking each block alone made
    # 167 calls here, and grouping blocks brings them under 20
    rng = np.random.default_rng(19)
    index = BruteForceIndex(rng.normal(size=(20_000, 8)), DistanceMetric.EUCLIDEAN)
    queries = rng.normal(size=(1000, 8))
    calls = []
    nearest_k = neighbors._nearest_k

    def counted(dist, *args):
        calls.append(len(dist))
        return nearest_k(dist, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_nearest_k", counted)
        index.query(queries, 10)
    assert sum(calls) == len(queries) and len(calls) <= 20


def test_grouped_cuts_a_group_before_a_wide_block():
    # a group is ranked once it holds _RANK_ENTRIES padded entries, or first,
    # without the next block, when that block would take it past 4x that
    cap = neighbors._RANK_ENTRIES

    def split(*widths):  # one query row per block, row i as wide as widths[i]
        blocks = [(np.array([i]), np.arange(w), np.array([w]), None) for i, w in enumerate(widths)]
        return [(sel.tolist(), positions.size, counts.tolist())
                for sel, positions, counts, _ in neighbors._grouped(blocks)]

    # a group of exactly cap entries is ranked at once
    assert split(cap, 10) == [([0], cap, [cap]), ([1], 10, [10])]
    # 4 rows padded to cap fill exactly 4 cap and stay one group; padded to cap + 1 they do not
    assert split(10, 10, 10, cap, 10) == [([0, 1, 2, 3], 30 + cap, [10, 10, 10, cap]),
                                          ([4], 10, [10])]
    assert split(10, 10, 10, cap + 1, 10) == [([0, 1, 2], 30, [10, 10, 10]),
                                              ([3], cap + 1, [cap + 1]), ([4], 10, [10])]


@pytest.mark.parametrize("metric", NUMERIC_METRICS)
@pytest.mark.parametrize("scale", [1.0, 1e-308, 5e-324, 1e200, 1.5e307])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_box_bound_never_exceeds_a_distance_in_the_box(data, scale, metric):
    # the kd-tree prunes by this invariant; at 1e200 and 1.5e307 squares
    # and sums overflow to inf, at 5e-324 squares underflow to 0
    points, queries = data.draw(tree_cases(scales=(scale,)))[:2]
    tree = _capped_tree(points, metric, data.draw(st.sampled_from(TREE_DEPTHS)))
    n, m = len(points), len(queries)
    leaf = np.repeat(np.arange(len(tree._leaf_size)), tree._leaf_size)  # of each column
    with np.errstate(over="ignore"):
        dist = tree._distances(queries, np.broadcast_to(np.arange(n), (m, n)),
                               np.empty((m, n)), np.empty((m, n)))
        for l in range(len(tree._leaf_size)):
            bound = neighbors._box_bounds(tree._lo[:, [l]], tree._hi[:, [l]], queries, queries,
                                          metric)
            assert (bound <= dist[:, leaf == l]).all()


TREE_ARRAYS = ("_split_axis", "_split_value", "_leaf_start", "_leaf_size",
               "_lo", "_hi", "_columns", "_ids")


def _per_level_reference_build(points, max_depth):
    """Reference kd build, row-major: every level gathers all rows again
    through the global permutation and pads short nodes with a masked
    +inf; the kd build, with its depth cap at ``max_depth``, must give
    the same tree."""
    n, d = points.shape
    depth = 0
    while -(-n >> depth) > neighbors._LEAF_SIZE and depth < max_depth:
        depth += 1
    perm = np.arange(n)
    sizes = np.array([n])
    axes, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for _ in range(depth):
        starts = np.cumsum(sizes) - sizes
        pts = points[perm]
        spread = (np.maximum.reduceat(pts, starts, axis=0)
                  - np.minimum.reduceat(pts, starts, axis=0))
        axis = np.argmax(spread, axis=1)
        width = int(sizes.max())
        half = width // 2
        slot = np.arange(width)
        pad = slot >= sizes[:, None]
        pos = np.minimum(starts[:, None] + slot, n - 1)
        vals = pts[pos, axis[:, None]]
        vals[pad] = np.inf
        part = np.argpartition(vals, half, axis=1)
        axes.append(axis)
        values.append(np.take_along_axis(vals, part[:, half:half + 1], 1)[:, 0])
        moved = np.take_along_axis(perm[pos], part, 1)
        perm = moved[~np.take_along_axis(pad, part, 1)]
        sizes = np.column_stack([np.full(len(sizes), half), sizes - half]).ravel()
    starts = np.cumsum(sizes) - sizes
    pts = points[perm]
    return dict(zip(TREE_ARRAYS, (
        np.concatenate(axes), np.concatenate(values), starts, sizes,
        np.ascontiguousarray(np.minimum.reduceat(pts, starts, axis=0).T),
        np.ascontiguousarray(np.maximum.reduceat(pts, starts, axis=0).T),
        np.ascontiguousarray(pts.T), perm)))


@st.composite
def build_cases(draw):
    """Training points for a kd build: sizes on and around the powers of
    two, normal or grid rows with duplicates, constant columns, all-equal
    rows, and subnormal or huge scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.sampled_from([1, 16, 17]),
                       st.builds(lambda j, e: 2**j + e, st.integers(5, 11), st.sampled_from([-1, 1])),
                       st.integers(1, 3000)))
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["normal", "grid", "constant columns", "equal rows"]))
    if kind == "grid":
        points = rng.integers(0, draw(st.sampled_from([2, 3, 6])), size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d))
    if kind == "constant columns":
        points[:, rng.random(d) < 0.5] = 1.0
    if kind == "equal rows":
        points[:] = points[0]
    return points * draw(st.sampled_from([1.0, 5e-324, 1e-308, 1e200]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(points=build_cases(), depth=st.sampled_from(TREE_DEPTHS))
@example(points=np.zeros((1, 1)), depth=neighbors._TREE_MAX_DEPTH)
# A leaf whose lowest value in a coordinate is both 0.0 and -0.0: the builds differ there.
@example(points=np.array([[1, 0], [1, 0], [1, -0.0], [-1, 1], [-2, -0.0], [-0.0, -1],
                          [1, -0.0], [-0.0, 1], [-0.0, 1], [0, -0.0], [-2, -1], [1, -0.0],
                          [-0.0, 2], [-1, -1], [-0.0, 1], [-1, -1], [-2, 1]]) * 5e-324,
         depth=neighbors._TREE_MAX_DEPTH)
def test_kd_build_equals_the_per_level_reference(points, depth):
    tree = _capped_tree(points, DistanceMetric.EUCLIDEAN, depth)
    reference = _per_level_reference_build(points, depth)
    for name, expected in reference.items():
        built = getattr(tree, name)
        assert (name, built.dtype, built.shape) == (name, expected.dtype, expected.shape)
        if name in ("_lo", "_hi"):
            # Between a leaf's 0.0 and -0.0, numpy's min/max keeps either,
            # by whether its reduction loop runs over contiguous memory;
            # box bounds accumulate from +0.0, so they cannot see the sign.
            built, expected = built + 0.0, expected + 0.0
        assert built.tobytes() == expected.tobytes(), name
    queries = np.vstack([points[:4], -points[:4], np.zeros(points.shape[1])])
    for metric in NUMERIC_METRICS:
        with np.errstate(over="ignore"):  # squared gaps past float range are inf
            bounds = [neighbors._box_bounds(lo, hi, queries, queries, metric) for lo, hi in
                      ((tree._lo, tree._hi), (reference["_lo"], reference["_hi"]))]
        assert bounds[0].tobytes() == bounds[1].tobytes()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_nearest_k_breaks_every_tie_on_the_training_row(data):
    # four values, one of them inf, so that ties inside the kept k and at the
    # k-th value, which pad the other rows, are common; ids are shuffled, so
    # column order is not id order, or None, the exact loop's column order
    b, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, c))
    dist = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, np.inf]),
                                       min_size=b * c, max_size=b * c))).reshape(b, c)
    ids = data.draw(st.none() | st.permutations(range(b * c)).map(
        lambda p: np.array(p, dtype=np.intp).reshape(b, c)))
    indices, distances = neighbors._nearest_k(dist, k, np.empty((b, c)),
                                              np.empty((b, c), dtype=bool), ids)
    for i in range(b):
        rows = range(c) if ids is None else ids[i].tolist()
        expected = sorted(zip(dist[i].tolist(), rows))[:k]
        assert list(zip(distances[i].tolist(), indices[i].tolist())) == expected


@pytest.mark.parametrize("metric", NUMERIC_METRICS)
def test_seed_bound_cut_keeps_every_point_that_ties_the_kth_distance(metric):
    # Every point of a 24 x 24 integer grid, twice, in shuffled order: many
    # points tie the k-th distance, about half of them outside the query's
    # seed window (in 421 of the 544 euclidean (query, k) cases, at least
    # one, on the default tree). The kd-tree drops each candidate above its
    # row's seed bound; every point on the bound must stay, at every depth cap.
    grid = np.array([(x, y) for x in range(24) for y in range(24)], dtype=float)
    points = np.repeat(grid, 2, axis=0)[np.random.default_rng(20).permutation(2 * len(grid))]
    queries = np.vstack([grid[::7], grid[::11] + 0.5])
    brute = BruteForceIndex(points, metric)
    expected = {k: brute.query(queries, k) for k in (3, 10, 26, 49)}
    for k, result in expected.items():  # brute force, held to the slow per-row scan once
        _assert_equals_per_row_oracle(result, brute, queries, k)
    candidates, nearest_k = KdTreeIndex._candidates, neighbors._nearest_k
    for depth in TREE_DEPTHS:
        tree = _capped_tree(points, metric, depth)
        scanned, ranked = [], []

        def counted_scan(self, *args):
            positions = candidates(self, *args)
            scanned.append(positions.size)
            return positions

        def counted_rank(dist, k, work, keep, ids=None):
            ranked.append(int(np.count_nonzero(ids < len(points))))  # real points, not pads
            return nearest_k(dist, k, work, keep, ids)

        for k, reference in expected.items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(KdTreeIndex, "_candidates", counted_scan)
                mp.setattr(neighbors, "_nearest_k", counted_rank)
                result = tree.query(queries, k)
            assert result.indices.tobytes() == reference.indices.tobytes()
            assert result.distances.tobytes() == reference.distances.tobytes()
        assert sum(ranked) < sum(scanned)


def test_kd_query_peaks_below_3_75_mib_at_the_sweep_shape():
    # the sweep's defaults: 8000 x 3 training rows, 2000 test rows, k 76; the
    # (2000, 76) indices and distances alone take 2.3 MiB. Seeding every row
    # and bounding every block before the block loop runs in the block
    # buffers; this query peaked at 3744 KiB before that, 3696 KiB after
    rng = np.random.default_rng(21)
    tree = KdTreeIndex(rng.uniform(0.0, 10.0, size=(8000, 3)), DistanceMetric.EUCLIDEAN)
    queries = rng.uniform(0.0, 10.0, size=(2000, 3))
    tracemalloc.start()
    try:
        tree.query(queries, 76)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * 2**20


def test_kd_query_peaks_below_2_mib_at_20000_x_8():
    # normal 20000 x 8, k 10, 300 rows: 1460 KiB. Each block yielded whole,
    # past the buffer cap, peaked at 9636 KiB
    rng = np.random.default_rng(25)
    points, queries = rng.normal(size=(20_000, 8)), rng.normal(size=(300, 8))
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN)
    tracemalloc.start()
    try:
        result = tree.query(queries, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    brute = BruteForceIndex(points, DistanceMetric.EUCLIDEAN).query(queries, 10)
    assert result.indices.tobytes() == brute.indices.tobytes()
    assert result.distances.tobytes() == brute.distances.tobytes()


@pytest.mark.parametrize("groups_per_k", [64, 2**20])
def test_brute_force_query_peaks_below_3_25_mib_at_20000_x_8(groups_per_k):
    # normal 20000 x 8, k 10, 1000 rows: 3212 KiB with r = 31 rounds of G = 645
    # groups, 3231 KiB with the per-k constant patched so that r = 1 and G = n
    # (a sample of every 4th column: 3064 KiB). The group minima are written
    # into a scratch buffer: a (B, G) array made per block adds 480 KiB at r = 1
    rng = np.random.default_rng(29)
    points, queries = rng.normal(size=(20_000, 8)), rng.normal(size=(1000, 8))
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_GROUPS_PER_K", groups_per_k)
        tracemalloc.start()
        try:
            index.query(queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3.25 * 2**20


def test_euclidean_filter_admits_about_k_candidates_per_row_at_20000_x_8():
    # K_i from the minima of F over G = 645 groups admits about k (1 + k / 2G)
    # candidates per row, 10.1 here; the k-th smallest F over every 4th
    # column admitted about 4k
    rng = np.random.default_rng(11)
    points, queries = rng.normal(size=(20_000, 8)), rng.normal(size=(1000, 8))
    index = BruteForceIndex(points, DistanceMetric.EUCLIDEAN)
    counts = []
    filter_block = BruteForceIndex._filter_block

    def counted(self, *args):
        block = filter_block(self, *args)
        counts.append(block[2].sum())
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BruteForceIndex, "_filter_block", counted)
        result = index.query(queries, 10)
    assert sum(counts) <= 1.5 * 10 * len(queries)
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN).query(queries, 10)
    assert result.indices.tobytes() == tree.indices.tobytes()
    assert result.distances.tobytes() == tree.distances.tobytes()


def test_kd_tree_at_the_density_shape_has_2_to_the_10_leaves():
    # density_kd_d2's shape: 100000 clustered 2-d rows, 60 of them 5 pool
    # points repeated 12 times, and k 10, so queries on a pool point have
    # radius 0. Split to 16-point leaves, the tree had 2^13 leaves and this
    # query peaked at 1.8 MiB
    rng = np.random.default_rng(23)
    centers, pool = rng.uniform(-20.0, 20.0, size=(3, 2)), rng.uniform(-20.0, 20.0, size=(5, 2))
    free = centers[rng.integers(0, 3, 99_940)] + rng.normal(0.0, 3.0, size=(99_940, 2))
    points = np.concatenate([free, np.repeat(pool, 12, axis=0)])[rng.permutation(100_000)]
    queries = centers[rng.integers(0, 3, 300)] + rng.normal(0.0, 3.0, size=(300, 2))
    queries[:3] = pool[rng.integers(0, 5, 3)]
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN)
    assert tree._depth == 10 and tree._leaf_size.size == 2**10
    tracemalloc.start()
    try:
        result = tree.query(queries, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    assert (result.distances[:3, -1] == 0.0).all()
    brute = BruteForceIndex(points, DistanceMetric.EUCLIDEAN).query(queries, 10)
    assert result.indices.tobytes() == brute.indices.tobytes()
    assert result.distances.tobytes() == brute.distances.tobytes()


@pytest.mark.parametrize("n", [8000, 16384])
def test_kd_depth_cap_leaves_trees_of_up_to_2_to_the_14_rows_unchanged(n):
    # the sweep's 8000 training rows make 2^9 leaves; 16384 rows split to
    # 16-point leaves at exactly the cap
    points = np.random.default_rng(21).uniform(0.0, 10.0, size=(n, 3))
    tree = KdTreeIndex(points, DistanceMetric.EUCLIDEAN)
    uncapped = _capped_tree(points, DistanceMetric.EUCLIDEAN, 64)
    assert tree._leaf_size.size == (2**9 if n == 8000 else 2**10)
    for name in TREE_ARRAYS:
        assert getattr(tree, name).tobytes() == getattr(uncapped, name).tobytes(), name
