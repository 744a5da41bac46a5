"""Property tests for the batched query path against one-row oracles.

``index.query`` on an (m, d) matrix must return, row for row, what it
returns for each row alone, and ``predict`` must equal the scalar oracle
``predict_from_neighbors`` applied to each row's own neighbor list. Inputs
come from small grids so that duplicated rows, distance ties, queries that
copy training rows (the exact-match rule), -0.0 targets, subnormal
coordinates and coordinates near the float limit (distances that overflow
to inf) all occur, along with m = 0, n = 1, d = 1 and k = n. Derandomized
and capped at a few examples per case.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsweep import (
    ColumnKind,
    Dataset,
    DistanceMetric,
    SearchBackend,
    WeightingMode,
    build_index,
    fit,
    predict,
    predict_from_neighbors,
)

PROPERTY_SETTINGS = settings(max_examples=8, derandomize=True, database=None, deadline=None)
TARGETS = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
                    st.floats(-100.0, 100.0, allow_nan=False))
NUMERIC_CASES = [(metric, backend)
                 for metric in (DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN)
                 for backend in SearchBackend]
HAMMING_CASE = (DistanceMetric.HAMMING, SearchBackend.BRUTE_FORCE)


def _dataset(features, targets, kind=ColumnKind.NUMERIC):
    features = np.array(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(features=features, target=np.array(targets, dtype=np.float64),
                   column_kinds=(kind,) * features.shape[1],
                   column_names=tuple(f"c{j}" for j in range(features.shape[1])))


@st.composite
def query_cases(draw, categorical=False):
    """(training dataset, query dataset, k) drawn from a small grid."""
    d = draw(st.integers(1, 3))
    codes = st.integers(0, 3) if categorical else st.integers(-1, 2)
    pool = draw(st.lists(st.lists(codes, min_size=d, max_size=d), min_size=1, max_size=5))
    n = draw(st.integers(1, 12))
    rows = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                           min_size=n, max_size=n))]
    # a query row is either a copy of a training row or a fresh grid point
    queries = draw(st.lists(st.one_of(st.sampled_from(rows),
                                      st.lists(codes, min_size=d, max_size=d)), max_size=5))
    scale = 1.0 if categorical else draw(st.sampled_from([1.0, 0.37, 1e-308, 5e-324, 8e307]))
    kind = ColumnKind.CATEGORICAL if categorical else ColumnKind.NUMERIC
    train = _dataset(np.array(rows) * scale, draw(st.lists(TARGETS, min_size=n, max_size=n)),
                     kind)
    query_set = _dataset(np.array(queries, dtype=np.float64).reshape(-1, d) * scale,
                         [0.0] * len(queries), kind)
    return train, query_set, draw(st.one_of(st.just(n), st.integers(1, n)))


# d = 1, duplicated rows, -0.0 targets, exact-match queries, k = n.
PINNED = (_dataset([0.0, 0.0, 1.0, 1.0, 3.0], [-0.0, 1.0, -0.0, 2.0, -0.0]),
          _dataset([0.0, 1.0, 2.0, 3.0], [0.0] * 4), 5)
# Subnormal coordinates, where manhattan weights 1/d overflow to inf.
PINNED_SUBNORMAL = (_dataset(np.array([[0, 0], [1, 0], [1, 0], [2, 1]]) * 5e-324,
                             [1.0, -0.0, 3.0, 2.0]),
                    _dataset(np.array([[1, 0], [0, 1], [2, 2]]) * 5e-324, [0.0] * 3), 3)
# No query rows at all.
PINNED_EMPTY = (_dataset([0.0, 1.0], [1.0, 2.0]), _dataset(np.zeros((0, 1)), []), 2)
# n = 1, d = 1 and k = n, with a query near the float limit.
PINNED_ONE_ROW = (_dataset([2.5], [-0.0]), _dataset([2.5, -1.0, 1.7e308], [0.0] * 3), 1)
# Coordinates near +-1.7e308: every distance from the origin query
# overflows to inf, so inverse weighting has no defined weights there.
PINNED_OVERFLOW = (_dataset([[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1e308, 0.0]],
                            [1.0, 2.0, 3.0]),
                   _dataset([[-1.7e308, -1.7e308], [1e308, 1.0], [0.0, 0.0]], [0.0] * 3), 3)
# Categorical codes, n = 1 and k = n.
PINNED_CATEGORICAL = (_dataset([[2.0, 0.0]], [1.5], ColumnKind.CATEGORICAL),
                      _dataset([[2.0, 0.0], [1.0, 0.0]], [0.0] * 2, ColumnKind.CATEGORICAL), 1)


def _assert_matrix_rows_equal_vector_queries(case, metric, backend):
    train, queries, k = case
    index = build_index(train, metric, backend)
    batch = index.query(queries.features, k)
    assert batch.indices.shape == batch.distances.shape == (queries.n_rows, min(k, train.n_rows))
    for i, q in enumerate(queries.features):
        one = index.query(q, k)
        assert batch.indices[i].tobytes() == one.indices.tobytes()
        assert batch.distances[i].tobytes() == one.distances.tobytes()


def _assert_predict_equals_scalar_oracle(case, metric, backend, weighting):
    train, queries, k = case
    model = fit(train, k=k, metric=metric, weighting=weighting, backend=backend)
    expected = []
    for q in queries.features:
        ns = model.index.query(q, k)
        try:
            expected.append(repr(predict_from_neighbors(train.target[ns.indices].tolist(),
                                                        ns.distances.tolist(), weighting)))
        except ValueError as err:  # every neighbor distance is inf
            with pytest.raises(ValueError, match=re.escape(str(err))):
                predict(model, queries)
            return
    preds = predict(model, queries)
    assert preds.shape == (queries.n_rows,)
    assert [repr(p) for p in preds.tolist()] == expected


@pytest.mark.parametrize("metric, backend", NUMERIC_CASES)
@PROPERTY_SETTINGS
@given(case=query_cases())
@example(case=PINNED)
@example(case=PINNED_SUBNORMAL)
@example(case=PINNED_EMPTY)
@example(case=PINNED_ONE_ROW)
@example(case=PINNED_OVERFLOW)
def test_matrix_query_rows_equal_vector_queries(case, metric, backend):
    _assert_matrix_rows_equal_vector_queries(case, metric, backend)


@PROPERTY_SETTINGS
@given(case=query_cases(categorical=True))
@example(case=PINNED_CATEGORICAL)
def test_hamming_matrix_query_rows_equal_vector_queries(case):
    _assert_matrix_rows_equal_vector_queries(case, *HAMMING_CASE)


@pytest.mark.parametrize("weighting", list(WeightingMode))
@pytest.mark.parametrize("metric, backend", NUMERIC_CASES)
@PROPERTY_SETTINGS
@given(case=query_cases())
@example(case=PINNED)
@example(case=PINNED_SUBNORMAL)
@example(case=PINNED_EMPTY)
@example(case=PINNED_ONE_ROW)
@example(case=PINNED_OVERFLOW)
def test_predict_rows_equal_scalar_oracle(case, metric, backend, weighting):
    _assert_predict_equals_scalar_oracle(case, metric, backend, weighting)


@pytest.mark.parametrize("weighting", list(WeightingMode))
@PROPERTY_SETTINGS
@given(case=query_cases(categorical=True))
@example(case=PINNED_CATEGORICAL)
def test_hamming_predict_rows_equal_scalar_oracle(case, weighting):
    _assert_predict_equals_scalar_oracle(case, *HAMMING_CASE, weighting)
