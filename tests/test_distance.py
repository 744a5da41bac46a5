import numpy as np
import pytest

from knnsweep import (
    DistanceMetric,
    distance,
    euclidean,
    hamming,
    manhattan,
    squared_euclidean,
)

ALL_FNS = [euclidean, manhattan, hamming]


class TestEuclidean:
    def test_3_4_5_triangle(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        x = (1.5, -2.25, 7.0)
        assert euclidean(x, x) == 0.0

    def test_direct_evaluation(self):
        # sqrt(9 + 16 + 0)
        assert euclidean((1, 2, 3), (4, 6, 3)) == 5.0


class TestManhattan:
    def test_abs_sum(self):
        assert manhattan((1, 2), (4, 6)) == 7.0

    def test_identity(self):
        x = (0.25, 3.5)
        assert manhattan(x, x) == 0.0

    def test_direct_evaluation(self):
        assert manhattan((-1, -1), (1, 1)) == 4.0


class TestHamming:
    def test_equal_codes_zero(self):
        assert hamming((0, 1, 2), (0, 1, 2)) == 0.0

    def test_single_mismatch(self):
        assert hamming((0, 1, 2), (0, 5, 2)) == 1.0

    def test_all_mismatch(self):
        assert hamming((0, 1, 2), (3, 4, 5)) == 3.0

    def test_non_integer_codes_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            hamming((0.5, 1.0), (0.5, 1.0))


class TestDispatch:
    def test_euclidean(self):
        assert distance(DistanceMetric.EUCLIDEAN, (0, 0), (3, 4)) == 5.0

    def test_manhattan_identity(self):
        assert distance(DistanceMetric.MANHATTAN, (1, 2), (1, 2)) == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="^unknown metric: 'euclidean'$"):
            distance("euclidean", (0, 0), (3, 4))

    def test_hamming_on_numeric_vectors_errors(self):
        with pytest.raises(ValueError, match="integer"):
            distance(DistanceMetric.HAMMING, (0.1, 0.2), (0.3, 0.4))


@pytest.mark.parametrize("fn", ALL_FNS)
class TestPreconditions:
    def test_length_mismatch(self, fn):
        with pytest.raises(ValueError, match="mismatch"):
            fn((1, 2), (1, 2, 3))

    def test_empty_vectors(self, fn):
        with pytest.raises(ValueError, match="empty"):
            fn((), ())


def _random_vectors(rng, dim, integer):
    if integer:
        return [rng.integers(0, 5, dim).astype(float) for _ in range(3)]
    return [rng.uniform(-10, 10, dim) for _ in range(3)]


class TestAxioms:
    @pytest.mark.parametrize(
        "fn,integer",
        [(euclidean, False), (manhattan, False), (hamming, True)],
    )
    def test_non_negativity_symmetry_identity_triangle(self, fn, integer):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(500):
            dim = int(rng.integers(1, 9))
            x, y, z = _random_vectors(rng, dim, integer)
            dxy = fn(x, y)
            assert dxy >= 0.0
            assert dxy == fn(y, x)  # bit-exact under left-to-right summation
            assert fn(x, x) == 0.0
            assert fn(x, z) <= fn(x, y) + fn(y, z) + 1e-12

    def test_ordering_consistency_with_squared(self):
        # neighbor search may compare squared euclidean values: the order agrees
        rng = np.random.Generator(np.random.PCG64(43))
        for _ in range(500):
            dim = int(rng.integers(1, 9))
            q, a, b = (rng.uniform(-10, 10, dim) for _ in range(3))
            full = euclidean(q, a) < euclidean(q, b)
            squared = squared_euclidean(q, a) < squared_euclidean(q, b)
            assert full == squared
