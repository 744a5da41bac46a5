"""Property test: every run_sweep row equals a per-k refit, bit for bit.

The sweep computes all k at once from running sums; the oracle refits the
model for each k and scores it with the scalar ``report``. Inputs are drawn
from small grids so that duplicated rows, distance ties, test rows that
copy training rows (the exact-match rule), -0.0 targets, subnormal
distances (weights 1/d that overflow) and values near the float limit all
occur. Derandomized and capped at about 50 examples in total.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from knnsweep import (
    ColumnKind,
    Dataset,
    DistanceMetric,
    SearchBackend,
    SplitSpec,
    SweepConfig,
    WeightingMode,
    apply_standardizer,
    fit,
    fit_standardizer,
    predict,
    report,
    run_sweep,
    select_best,
    split,
)

PROPERTY_SETTINGS = settings(
    max_examples=6,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
TARGETS = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
                    st.floats(-100.0, 100.0, allow_nan=False))


@st.composite
def sweep_cases(draw, categorical=False):
    """(dataset, split fraction, k_min, k_max, standardize) for one sweep."""
    d = draw(st.integers(1, 3))
    codes = st.integers(0, 3) if categorical else st.integers(-1, 2)
    pool = draw(st.lists(st.lists(codes, min_size=d, max_size=d), min_size=1, max_size=6))
    n = draw(st.integers(max(2, len(pool)), 16))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    features = np.array([pool[i] for i in picks], dtype=np.float64)
    if not categorical:
        features *= draw(st.sampled_from([1.0, 0.37, 1e-308, 5e-324]))
    targets = draw(st.lists(TARGETS, min_size=n, max_size=n))
    kind = ColumnKind.CATEGORICAL if categorical else ColumnKind.NUMERIC
    data = Dataset(features=features, target=np.array(targets),
                   column_kinds=(kind,) * d, column_names=tuple(f"c{j}" for j in range(d)))
    fraction = draw(st.sampled_from([0.5, 0.75]))
    n_train = int(n * fraction)
    k_max = draw(st.one_of(st.just(n_train), st.integers(1, n_train)))
    k_min = draw(st.integers(1, k_max))
    return data, fraction, k_min, k_max, draw(st.booleans())


def _dataset(rows, targets):
    features = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    return Dataset(features=features, target=np.array(targets),
                   column_kinds=(ColumnKind.NUMERIC,) * features.shape[1],
                   column_names=tuple(f"c{j}" for j in range(features.shape[1])))


# d = 1, every row duplicated, -0.0 targets, k_max equal to the 6 training rows.
PINNED = (_dataset([0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 0.0, 1.0],
                   [-0.0, 1.0, -0.0, 2.0, 5.0, -0.0, 4.0, -0.0]), 0.75, 1, 6, False)
# Unstandardized subnormal coordinates: manhattan weights 1/d overflow to inf.
PINNED_SUBNORMAL = (_dataset(np.array([[0, 0], [1, 0], [1, 0], [2, 1], [0, 1], [1, 0],
                                       [2, 1], [0, 0]]) * 5e-324,
                             [1.0, -0.0, 3.0, 2.0, -1.0, 0.5, 2.0, -0.0]), 0.5, 2, 4, False)
# Standardized columns near +-1.7e308, whose squared deviations overflow; k_max = n_train.
PINNED_OVERFLOW = (_dataset([[1.7e308, 1.0], [-1.7e308, 2.0], [1.6e308, 1.0], [-1e308, 0.0],
                             [0.0, 1.0], [1.7e308, 2.0]],
                            [1.0, 2.0, -0.0, 4.0, 5.0, 6.0]), 0.5, 1, 3, True)


def _assert_rows_match_refits(case, metric, weighting, backend):
    data, fraction, k_min, k_max, standardize = case
    spec = SplitSpec(train_fraction=fraction, seed=7)
    config = SweepConfig(k_min=k_min, k_max=k_max, metric=metric, weighting=weighting,
                         backend=backend, split=spec, standardize=standardize)
    result = run_sweep(data, config)
    train, test = split(data, spec)
    if standardize:
        scaler = fit_standardizer(train)
        train, test = apply_standardizer(scaler, train), apply_standardizer(scaler, test)
    assert [k for k, _ in result.rows] == list(range(k_min, k_max + 1))
    for k, rep in result.rows:
        model = fit(train, k=k, metric=metric, weighting=weighting, backend=backend)
        assert repr(rep) == repr(report(test.target, predict(model, test)))
    assert result.best_k_rmse == select_best(result, "rmse")
    if any(rep.r_squared is not None for _, rep in result.rows):
        assert result.best_k_r2 == select_best(result, "r2")
    else:
        assert result.best_k_r2 is None


@pytest.mark.parametrize("backend", list(SearchBackend))
@pytest.mark.parametrize("metric", [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN])
@pytest.mark.parametrize("weighting", list(WeightingMode))
@PROPERTY_SETTINGS
@given(case=sweep_cases())
@example(case=PINNED)
@example(case=PINNED_SUBNORMAL)
@example(case=PINNED_OVERFLOW)
def test_sweep_rows_equal_per_k_refits(case, metric, weighting, backend):
    _assert_rows_match_refits(case, metric, weighting, backend)


@pytest.mark.parametrize("weighting", list(WeightingMode))
@PROPERTY_SETTINGS
@given(case=sweep_cases(categorical=True))
def test_hamming_sweep_rows_equal_per_k_refits(case, weighting):
    _assert_rows_match_refits(case, DistanceMetric.HAMMING, weighting, SearchBackend.BRUTE_FORCE)
