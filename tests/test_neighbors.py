import math

import numpy as np
import pytest

from knnsweep import (
    ColumnKind,
    DistanceMetric,
    SearchBackend,
    build_index,
    euclidean,
    manhattan,
    query,
    query_radius_of_kth,
    squared_euclidean,
)

from conftest import make_dataset

BACKENDS = [SearchBackend.BRUTE_FORCE, SearchBackend.KD_TREE]
KD_METRICS = [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN]


def _naive_neighbors(points, q, k, metric=DistanceMetric.EUCLIDEAN):
    """Independent oracle: scalar distances, sorted by (distance, index),
    with euclidean ranked by squared distance as the backends rank it."""
    euclid = metric is DistanceMetric.EUCLIDEAN
    fn = squared_euclidean if euclid else manhattan
    pairs = sorted((fn(row, q), i) for i, row in enumerate(points))
    take = pairs[: min(k, len(pairs))]
    return [i for _, i in take], [math.sqrt(d) if euclid else d for d, _ in take]


@pytest.mark.parametrize("backend", BACKENDS)
class TestQuery:
    def test_nearest_of_three(self, backend):
        idx = build_index(make_dataset([0.0, 10.0, 20.0]), DistanceMetric.EUCLIDEAN, backend)
        ns = query(idx, [1.0], 1)
        assert ns.indices.tolist() == [0]
        assert ns.distances.tolist() == [1.0]

    def test_self_match_distance_zero(self, backend):
        idx = build_index(make_dataset([0.0, 10.0, 20.0]), DistanceMetric.EUCLIDEAN, backend)
        ns = query(idx, [20.0], 1)
        assert ns.indices.tolist() == [2]
        assert ns.distances.tolist() == [0.0]

    def test_tie_breaks_to_lower_index(self, backend):
        idx = build_index(make_dataset([-1.0, 1.0]), DistanceMetric.EUCLIDEAN, backend)
        ns = query(idx, [0.0], 1)
        assert ns.indices.tolist() == [0]

    def test_equal_roots_keep_their_squared_order(self, backend):
        # squared distances 1 + 2^-52 and 1 both square-root to 1.0
        points = [[1.0, 2.0**-26], [1.0, 0.0]]
        idx = build_index(make_dataset(points), DistanceMetric.EUCLIDEAN, backend)
        ns = query(idx, [0.0, 0.0], 1)
        assert (ns.indices.tolist(), ns.distances.tolist()) == ([1], [1.0])
        assert _naive_neighbors(points, [0.0, 0.0], 1) == ([1], [1.0])

    def test_k_at_least_n_returns_all_rows_once(self, backend):
        rng = np.random.Generator(np.random.PCG64(1))
        ds = make_dataset(rng.normal(0, 1, (17, 3)))
        idx = build_index(ds, DistanceMetric.EUCLIDEAN, backend)
        for k in (17, 40):
            ns = query(idx, rng.normal(0, 1, 3), k)
            assert sorted(ns.indices.tolist()) == list(range(17))

    def test_results_sorted_and_deterministic(self, backend):
        rng = np.random.Generator(np.random.PCG64(2))
        ds = make_dataset(rng.normal(0, 1, (60, 2)))
        idx = build_index(ds, DistanceMetric.EUCLIDEAN, backend)
        q = rng.normal(0, 1, 2)
        a = query(idx, q, 10)
        b = query(idx, q, 10)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)
        assert np.all(np.diff(a.distances) >= 0)

    def test_completeness(self, backend):
        rng = np.random.Generator(np.random.PCG64(4))
        ds = make_dataset(rng.normal(0, 1, (80, 3)))
        idx = build_index(ds, DistanceMetric.EUCLIDEAN, backend)
        q = rng.normal(0, 1, 3)
        ns = query(idx, q, 7)
        returned = set(ns.indices.tolist())
        worst = ns.distances[-1]
        for i, row in enumerate(ds.features):
            if i not in returned:
                assert euclidean(row, q) >= worst

    def test_dimension_mismatch(self, backend):
        idx = build_index(make_dataset([[0.0, 0.0]]), DistanceMetric.EUCLIDEAN, backend)
        with pytest.raises(ValueError, match="length 2"):
            query(idx, [1.0], 1)

    def test_k_below_one(self, backend):
        idx = build_index(make_dataset([0.0, 1.0]), DistanceMetric.EUCLIDEAN, backend)
        with pytest.raises(ValueError, match="k must be"):
            query(idx, [0.0], 0)


class TestBuildIndex:
    def test_single_row_brute_force(self):
        idx = build_index(make_dataset([5.0]), DistanceMetric.EUCLIDEAN, SearchBackend.BRUTE_FORCE)
        assert idx.n_points == 1

    def test_kd_tree_point_count(self):
        rng = np.random.Generator(np.random.PCG64(9))
        ds = make_dataset(rng.normal(0, 1, (100, 2)))
        idx = build_index(ds, DistanceMetric.EUCLIDEAN, SearchBackend.KD_TREE)
        assert idx.n_points == 100

    def test_kd_tree_rejects_hamming(self):
        ds = make_dataset([0.0, 1.0], kinds=(ColumnKind.CATEGORICAL,))
        with pytest.raises(ValueError, match="kd_tree"):
            build_index(ds, DistanceMetric.HAMMING, SearchBackend.KD_TREE)

    def test_hamming_requires_all_categorical(self):
        ds = make_dataset([0.0, 1.0])  # numeric column
        with pytest.raises(ValueError, match="categorical"):
            build_index(ds, DistanceMetric.HAMMING, SearchBackend.BRUTE_FORCE)

    def test_backend_that_is_not_a_search_backend(self):
        with pytest.raises(ValueError, match="^unknown backend: 'kd_tree'$"):
            build_index(make_dataset([0.0, 1.0]), DistanceMetric.EUCLIDEAN, "kd_tree")

    def test_empty_training_set(self):
        ds = make_dataset(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty"):
            build_index(ds, DistanceMetric.EUCLIDEAN, SearchBackend.BRUTE_FORCE)

    def test_hamming_query_requires_integer_codes(self):
        ds = make_dataset([0.0, 1.0], kinds=(ColumnKind.CATEGORICAL,))
        idx = build_index(ds, DistanceMetric.HAMMING, SearchBackend.BRUTE_FORCE)
        with pytest.raises(ValueError, match="integer"):
            query(idx, [0.5], 1)

    def test_hamming_brute_force_works(self):
        ds = make_dataset(
            [[0.0, 1.0], [0.0, 2.0], [3.0, 4.0]],
            kinds=(ColumnKind.CATEGORICAL, ColumnKind.CATEGORICAL),
        )
        idx = build_index(ds, DistanceMetric.HAMMING, SearchBackend.BRUTE_FORCE)
        ns = query(idx, [0.0, 2.0], 2)
        assert ns.indices.tolist() == [1, 0]
        assert ns.distances.tolist() == [0.0, 1.0]


class TestRadius:
    def test_second_neighbor(self):
        idx = build_index(make_dataset([0.0, 10.0, 20.0]), DistanceMetric.EUCLIDEAN,
                          SearchBackend.BRUTE_FORCE)
        assert query_radius_of_kth(idx, [0.0], 2) == 10.0

    def test_zero_on_training_point(self):
        idx = build_index(make_dataset([0.0, 10.0]), DistanceMetric.EUCLIDEAN,
                          SearchBackend.KD_TREE)
        assert query_radius_of_kth(idx, [0.0], 1) == 0.0

    def test_k_beyond_n_errors(self):
        idx = build_index(make_dataset([0.0, 10.0]), DistanceMetric.EUCLIDEAN,
                          SearchBackend.BRUTE_FORCE)
        with pytest.raises(ValueError, match="exceeds"):
            query_radius_of_kth(idx, [0.0], 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_last_query_distance(self, backend):
        rng = np.random.Generator(np.random.PCG64(6))
        ds = make_dataset(rng.normal(0, 1, (50, 2)))
        idx = build_index(ds, DistanceMetric.EUCLIDEAN, backend)
        q = rng.normal(0, 1, 2)
        oracle_idx, oracle_dist = _naive_neighbors(ds.features, q, 5)
        ns = query(idx, q, 5)
        assert ns.indices.tolist() == oracle_idx
        assert query_radius_of_kth(idx, q, 5) == ns.distances[-1] == oracle_dist[-1]


class TestBackendEquivalence:
    @pytest.mark.parametrize("metric", KD_METRICS)
    def test_bit_identical_random_instances(self, metric):
        rng = np.random.Generator(np.random.PCG64(100))
        for _ in range(500):
            n = int(rng.integers(1, 200))
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 51))
            ds = make_dataset(rng.normal(0, 1, (n, d)))
            q = rng.normal(0, 1, d)
            a = query(build_index(ds, metric, SearchBackend.BRUTE_FORCE), q, k)
            b = query(build_index(ds, metric, SearchBackend.KD_TREE), q, k)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("metric", KD_METRICS)
    def test_bit_identical_with_heavy_ties(self, metric):
        # low-resolution grid coordinates force many exactly-equal distances
        rng = np.random.Generator(np.random.PCG64(101))
        for _ in range(200):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 20))
            ds = make_dataset(rng.integers(0, 3, (n, d)).astype(float))
            q = rng.integers(0, 3, d).astype(float)
            a = query(build_index(ds, metric, SearchBackend.BRUTE_FORCE), q, k)
            b = query(build_index(ds, metric, SearchBackend.KD_TREE), q, k)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.distances, b.distances)

    def test_against_naive_oracle(self):
        rng = np.random.Generator(np.random.PCG64(102))
        for metric in KD_METRICS:
            for _ in range(50):
                n = int(rng.integers(1, 60))
                d = int(rng.integers(1, 5))
                k = int(rng.integers(1, 12))
                ds = make_dataset(rng.uniform(-5, 5, (n, d)))
                q = rng.uniform(-5, 5, d)
                expect_idx, expect_dist = _naive_neighbors(ds.features, q, k, metric)
                for backend in BACKENDS:
                    ns = query(build_index(ds, metric, backend), q, k)
                    assert ns.indices.tolist() == expect_idx
                    assert ns.distances.tolist() == expect_dist


@pytest.mark.parametrize("backend", BACKENDS)
class TestMatrixQuery:
    def test_result_shape_follows_the_query(self, backend):
        rng = np.random.Generator(np.random.PCG64(7))
        idx = build_index(make_dataset(rng.normal(0, 1, (9, 2))), DistanceMetric.EUCLIDEAN,
                          backend)
        assert query(idx, rng.normal(0, 1, 2), 4).indices.shape == (4,)
        ns = query(idx, rng.normal(0, 1, (5, 2)), 4)
        assert ns.indices.shape == ns.distances.shape == (5, 4)
        assert len(ns) == 5
        assert query(idx, rng.normal(0, 1, (3, 2)), 20).indices.shape == (3, 9)

    def test_empty_query_matrix(self, backend):
        idx = build_index(make_dataset([0.0, 1.0]), DistanceMetric.EUCLIDEAN, backend)
        ns = query(idx, np.zeros((0, 1)), 2)
        assert ns.indices.shape == ns.distances.shape == (0, 2)
        assert ns.indices.dtype == np.int64

    def test_matrix_width_mismatch(self, backend):
        idx = build_index(make_dataset([[0.0, 0.0]]), DistanceMetric.EUCLIDEAN, backend)
        with pytest.raises(ValueError, match="length 2"):
            query(idx, [[1.0, 2.0, 3.0]], 1)
        with pytest.raises(ValueError, match="length 2"):
            query(idx, np.zeros((1, 1, 2)), 1)

    def test_any_non_finite_row_is_rejected(self, backend):
        idx = build_index(make_dataset([0.0, 1.0]), DistanceMetric.EUCLIDEAN, backend)
        with pytest.raises(ValueError, match="NaN"):
            query(idx, [[0.5], [np.nan]], 1)


# Distances past the float range rank wrong on both backends: the squares
# or, for manhattan, the coordinate differences themselves overflow to inf
# and tie, so the row index decides. Row 1 (2e154 away) must come before
# row 0 (4e154 away), and row 1 (2e308 away) before row 0 (2.5e308 away).
OVERFLOW_MISRANKINGS = [
    (DistanceMetric.EUCLIDEAN, [0.0, 2e154, 3e154, -5e154], 4e154, [2, 1, 0]),
    (DistanceMetric.MANHATTAN, [-1.5e308, -1e308], 1e308, [1, 0]),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="distances past the float range tie at inf (CHANGES.md FOUND)")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric, train, q, expected", OVERFLOW_MISRANKINGS)
def test_distances_past_the_float_range_keep_their_order(backend, metric, train, q, expected):
    idx = build_index(make_dataset(train), metric, backend)
    assert query(idx, [q], len(expected)).indices.tolist() == expected
