import math

import numpy as np
import pytest

from knnsweep import (
    ColumnKind,
    DistanceMetric,
    SchemaError,
    SearchBackend,
    SplitSpec,
    SweepConfig,
    WeightingMode,
    ZeroRadiusError,
    apply_standardizer,
    estimate_densities,
    estimate_density,
    fit,
    fit_standardizer,
    predict,
    predict_from_neighbors,
    predict_one,
    query_radius_of_kth,
    report,
    run_sweep,
    split,
    unit_ball_volume,
)
from knnsweep.regressor import predict_prefixes

from conftest import make_dataset


class TestFit:
    def test_k_equal_n_is_valid(self):
        ds = make_dataset(np.arange(10.0))
        assert fit(ds, k=10).k == 10

    def test_k_above_n_errors(self):
        ds = make_dataset(np.arange(10.0))
        with pytest.raises(ValueError, match="out of range"):
            fit(ds, k=11)

    def test_k_zero_errors(self):
        ds = make_dataset(np.arange(10.0))
        with pytest.raises(ValueError, match="out of range"):
            fit(ds, k=0)

    def test_empty_train_errors(self):
        ds = make_dataset(np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            fit(ds, k=1)


    def test_standardize_fits_on_the_training_rows(self):
        rng = np.random.Generator(np.random.PCG64(31))
        features = np.column_stack([rng.normal(5, 3, 20), rng.integers(0, 3, 20)])
        ds = make_dataset(features, target=rng.normal(0, 1, 20),
                          kinds=(ColumnKind.NUMERIC, ColumnKind.CATEGORICAL))
        model = fit(ds, k=2, standardize=True)
        scaler = fit_standardizer(ds)
        assert model.standardizer.means.tobytes() == scaler.means.tobytes()
        assert model.standardizer.sds.tobytes() == scaler.sds.tobytes()
        expected = apply_standardizer(scaler, ds).features
        assert model.train.features.tobytes() == expected.tobytes()

    def test_without_standardize_the_rows_are_kept(self):
        ds = make_dataset([[0.0, 10.0], [1.0, 30.0], [2.0, 20.0]], target=[1.0, 2.0, 3.0])
        model = fit(ds, k=1, standardize=False)
        assert model.standardizer is None
        assert model.train.features.tobytes() == ds.features.tobytes()
        assert model.train.target.tobytes() == ds.target.tobytes()


class TestPredictOne:
    def test_single_nearest_target(self):
        ds = make_dataset([0.0, 10.0], target=[10.0, 20.0])
        model = fit(ds, k=1)
        assert predict_one(model, [1.0]) == 10.0

    def test_k_equals_n_gives_global_mean(self):
        ds = make_dataset([0.0, 10.0], target=[10.0, 20.0])
        model = fit(ds, k=2)
        for q in ([-5.0], [3.0], [100.0]):
            assert predict_one(model, q) == 15.0

    def test_inverse_distance_weighting(self):
        # distances 0.5 and 1.5 -> weights 2 and 2/3 -> (2*0 + (2/3)*3) / (2 + 2/3)
        ds = make_dataset([0.0, 2.0], target=[0.0, 3.0])
        model = fit(ds, k=2, weighting=WeightingMode.INVERSE_DISTANCE)
        assert predict_one(model, [0.5]) == pytest.approx(0.75, rel=1e-12)

    def test_exact_match_rule(self):
        # two training rows sit exactly on the query: average their targets only
        ds = make_dataset([0.0, 0.0, 1.0], target=[5.0, 9.0, 100.0])
        model = fit(ds, k=3, weighting=WeightingMode.INVERSE_DISTANCE)
        assert predict_one(model, [0.0]) == 7.0

    def test_dimension_mismatch(self):
        ds = make_dataset([[0.0, 0.0]], target=[1.0])
        model = fit(ds, k=1)
        with pytest.raises(ValueError):
            predict_one(model, [1.0, 2.0, 3.0])


class TestPredictBatch:
    def test_empty_query_set(self):
        ds = make_dataset([0.0, 1.0], target=[1.0, 2.0])
        model = fit(ds, k=1)
        queries = make_dataset(np.zeros((0, 1)))
        assert predict(model, queries).shape == (0,)

    def test_self_queries_return_exact_targets(self):
        rng = np.random.Generator(np.random.PCG64(21))
        ds = make_dataset(rng.normal(0, 1, (30, 3)), target=rng.normal(0, 5, 30))
        model = fit(ds, k=1)
        assert np.array_equal(predict(model, ds), ds.target)

    def test_batch_equals_scalar_loop(self):
        rng = np.random.Generator(np.random.PCG64(22))
        ds = make_dataset(rng.normal(0, 1, (40, 2)), target=rng.normal(0, 5, 40))
        queries = make_dataset(rng.normal(0, 1, (15, 2)))
        for mode in WeightingMode:
            model = fit(ds, k=5, weighting=mode)
            batch = predict(model, queries)
            scalar = [predict_one(model, row) for row in queries.features]
            assert batch.tolist() == scalar

    def test_schema_mismatch(self):
        ds = make_dataset([0.0, 1.0], target=[1.0, 2.0], names=("a",))
        model = fit(ds, k=1)
        with pytest.raises(SchemaError):
            predict(model, make_dataset([0.0], names=("b",)))

    def test_standardizer_applied_to_queries(self):
        rng = np.random.Generator(np.random.PCG64(23))
        # feature scales differ wildly; standardization changes the neighbors
        features = np.column_stack([rng.normal(0, 1, 50), rng.normal(0, 1000, 50)])
        ds = make_dataset(features, target=rng.normal(0, 5, 50))
        scaler = fit_standardizer(ds)
        model = fit(ds, k=3, standardize=True)
        queries = make_dataset(rng.normal(0, 1, (8, 2)))
        manual = fit(apply_standardizer(scaler, ds), k=3)
        expected = predict(manual, apply_standardizer(scaler, queries))
        assert predict(model, queries).tolist() == expected.tolist()


class TestProperties:
    def test_convexity_of_predictions(self):
        rng = np.random.Generator(np.random.PCG64(24))
        ds = make_dataset(rng.normal(0, 1, (60, 3)), target=rng.normal(0, 10, 60))
        for mode in WeightingMode:
            model = fit(ds, k=7, weighting=mode)
            for _ in range(50):
                q = rng.normal(0, 1, 3)
                ns = model.index.query(q, 7)
                targets = ds.target[ns.indices]
                p = predict_one(model, q)
                slack = 1e-12 * (1.0 + abs(float(targets.max())))
                assert targets.min() - slack <= p <= targets.max() + slack

    def test_k_equals_n_reproduces_training_mean(self):
        rng = np.random.Generator(np.random.PCG64(25))
        ds = make_dataset(rng.normal(0, 1, (45, 2)), target=rng.normal(3, 7, 45))
        model = fit(ds, k=45)
        mean = float(np.mean(ds.target))
        for _ in range(20):
            p = predict_one(model, rng.normal(0, 1, 2))
            assert p == pytest.approx(mean, rel=1e-12, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(26))
        features = rng.normal(0, 1, (40, 2))
        target = rng.normal(0, 5, 40)
        c = 17.25
        queries = [rng.normal(0, 1, 2) for _ in range(10)]
        for mode in WeightingMode:
            base = fit(make_dataset(features, target=target), k=4, weighting=mode)
            shifted = fit(make_dataset(features, target=target + c), k=4, weighting=mode)
            for q in queries:
                assert predict_one(shifted, q) == pytest.approx(
                    predict_one(base, q) + c, abs=1e-9
                )

    def test_k1_returns_nearest_target_exactly(self):
        rng = np.random.Generator(np.random.PCG64(27))
        ds = make_dataset(rng.normal(0, 1, (30, 2)), target=rng.normal(0, 5, 30))
        model = fit(ds, k=1)
        for _ in range(20):
            q = rng.normal(0, 1, 2)
            ns = model.index.query(q, 1)
            assert predict_one(model, q) == ds.target[ns.indices[0]]


class TestDensity:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_unit_ball_volume_needs_a_dimension(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            unit_ball_volume(0)

    def test_unit_ball_volume_past_gamma_overflow(self):
        # gamma(d/2 + 1) overflows from d = 342 on; the log-space volume
        # continues the closed form and stays a positive float.
        with pytest.raises(OverflowError):
            math.gamma(342 / 2.0 + 1.0)
        log_volume = 341 / 2.0 * math.log(math.pi) - math.lgamma(341 / 2.0 + 1.0)
        assert unit_ball_volume(341) == pytest.approx(math.exp(log_volume), rel=1e-12)
        assert 0.0 < unit_ball_volume(350) < unit_ball_volume(342) < unit_ball_volume(341)

    def test_one_dimensional_example(self):
        # q=0: neighbors at 1, -1, 2 -> r = 2; n = 10, k = 3 -> 3 / (10 * 2*2)
        pts = [1.0, -1.0, 2.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
        model = fit(make_dataset(pts), k=3)
        assert estimate_density(model, [0.0]).value == pytest.approx(0.075, rel=1e-12)

    def test_two_dimensional_example(self):
        # one point on the unit circle, 99 farther out: k=1, r=1 -> 1/(100*pi)
        rng = np.random.Generator(np.random.PCG64(28))
        far = rng.uniform(5, 10, (99, 2))
        pts = np.vstack([[1.0, 0.0], far])
        model = fit(make_dataset(pts), k=1)
        got = estimate_density(model, [0.0, 0.0]).value
        assert got == pytest.approx(1.0 / (100.0 * math.pi), rel=1e-12)

    def test_zero_radius_is_an_error(self):
        model = fit(make_dataset([0.0, 1.0]), k=1)
        with pytest.raises(ZeroRadiusError):
            estimate_density(model, [0.0])

    def test_non_euclidean_metric_rejected(self):
        model = fit(make_dataset([0.0, 1.0]), k=1, metric=DistanceMetric.MANHATTAN)
        with pytest.raises(ValueError, match="euclidean"):
            estimate_density(model, [0.5])

    def test_uniform_sample_monte_carlo(self):
        rng = np.random.Generator(np.random.PCG64(123))
        ds = make_dataset(rng.uniform(0, 1, 1000))
        model = fit(ds, k=10)
        values = [estimate_density(model, [q]).value for q in np.linspace(0.05, 0.95, 100)]
        assert 0.8 <= np.mean(values) <= 1.2


class TestSubnormalDistance:
    """Inverse weighting at subnormal distances, where 1/d or the sum of the
    weights overflows to inf; the prediction must stay finite and within the
    neighbors' target range, on the scalar and on the prefix-sum path."""

    MANHATTAN = DistanceMetric.MANHATTAN
    INVERSE = WeightingMode.INVERSE_DISTANCE

    @pytest.mark.parametrize("xs, ys, q", [
        ([0.0, 1.0], [0.0, 1.0], 5e-324),     # 1/d overflows
        ([0.0, 2e-308], [1.0, 1.0], 1e-308),  # 1/d is finite, the sum of weights is not
    ])
    def test_scalar_and_prefix_paths_are_finite_and_in_range(self, xs, ys, q):
        model = fit(make_dataset(xs, target=ys), k=2, metric=self.MANHATTAN,
                    weighting=self.INVERSE)
        pred = predict_one(model, [q])
        assert math.isfinite(pred)
        assert min(ys) <= pred <= max(ys)
        ns = model.index.query([q], 2)
        preds = predict_prefixes([model.train.target[ns.indices]], [ns.distances], self.INVERSE)
        assert np.isfinite(preds).all()
        assert repr(preds[0, 1].item()) == repr(pred)

    def test_zero_distances_outrank_overflowing_weights(self):
        ds = make_dataset([0.0, 5e-324, 1.0], target=[2.0, 4.0, 8.0])
        model = fit(ds, k=3, metric=self.MANHATTAN, weighting=self.INVERSE)
        assert predict_one(model, [0.0]) == 2.0
        preds = predict_prefixes([[2.0, 4.0, 8.0]], [[0.0, 5e-324, 1.0]], self.INVERSE)
        assert preds.tolist() == [[2.0, 2.0, 2.0]]

    def test_sweep_is_finite_and_matches_refits(self):
        data = make_dataset([0.0, 1.0, 5e-324], target=[0.0, 1.0, 0.5])
        # a seed whose split leaves the subnormal row as the only test row
        spec = next(s for s in (SplitSpec(train_fraction=0.67, seed=seed) for seed in range(100))
                    if split(data, s)[1].features[0, 0] == 5e-324)
        config = SweepConfig(k_min=1, k_max=2, metric=self.MANHATTAN, weighting=self.INVERSE,
                             backend=SearchBackend.BRUTE_FORCE, split=spec, standardize=False)
        result = run_sweep(data, config)
        train, test = split(data, spec)
        for k, rep in result.rows:
            model = fit(train, k, self.MANHATTAN, self.INVERSE, SearchBackend.BRUTE_FORCE)
            preds = predict(model, test)
            assert np.isfinite(preds).all()
            assert ((0.0 <= preds) & (preds <= 1.0)).all()
            assert repr(rep) == repr(report(test.target, preds))


class TestOverflowLimits:
    """Euclidean distances and ball volumes that leave float range give a
    typed error or an IEEE limit, never ZeroDivisionError or OverflowError."""

    INVERSE = WeightingMode.INVERSE_DISTANCE

    def test_inf_distances_with_inverse_weighting_are_a_value_error(self):
        # (1e200 - 0)**2 overflows, so both neighbor distances are inf
        model = fit(make_dataset([1e200, -1e200], target=[1.0, 2.0]), k=2,
                    weighting=self.INVERSE)
        with pytest.raises(ValueError, match="overflowed to inf"):
            predict_one(model, [0.0])
        with pytest.raises(ValueError, match="overflowed to inf"):
            predict(model, make_dataset([[0.0], [1e200]]))
        with pytest.raises(ValueError, match="overflowed to inf"):
            predict_from_neighbors([1.0, 2.0], [math.inf, math.inf], self.INVERSE)

    def test_inf_distances_with_uniform_weighting_still_average(self):
        model = fit(make_dataset([1e200, -1e200], target=[1.0, 2.0]), k=2)
        assert predict_one(model, [0.0]) == 1.5
        assert predict(model, make_dataset([0.0])).tolist() == [1.5]

    @pytest.mark.parametrize("x, expected", [
        (1e-150, math.inf),  # radius**3 underflows to 0 at a nonzero radius
        (1e150, 0.0),        # radius**3 overflows
    ])
    def test_ball_volume_out_of_float_range(self, x, expected):
        model = fit(make_dataset([[0.0, 0.0, 0.0], [x, 0.0, 0.0]]), k=2)
        assert estimate_density(model, [0.0, 0.0, 0.0]).value == expected
        assert estimate_densities(model, make_dataset([[0.0, 0.0, 0.0]])).tolist() == [expected]


class TestQueryMatrices:
    def test_densities_match_scalar_estimates(self):
        rng = np.random.Generator(np.random.PCG64(31))
        ds = make_dataset(rng.uniform(0, 1, (40, 2)))
        queries = np.vstack([ds.features[:3], rng.uniform(0, 1, (5, 2))])
        model = fit(ds, k=1)
        got = estimate_densities(model, make_dataset(queries)).tolist()
        assert got[:3] == [math.inf] * 3  # zero radius
        assert got[3:] == [estimate_density(model, q).value for q in queries[3:]]

    def test_densities_require_euclidean(self):
        model = fit(make_dataset([0.0, 1.0]), k=1, metric=DistanceMetric.MANHATTAN)
        with pytest.raises(ValueError, match="euclidean"):
            estimate_densities(model, make_dataset([0.5]))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_single_vector_functions_reject_matrices(self, scaled):
        ds = make_dataset([0.0, 1.0, 2.0], target=[1.0, 2.0, 3.0])
        model = fit(ds, k=1, standardize=scaled)
        matrix = [[0.0], [1.0]]
        with pytest.raises(ValueError):
            predict_one(model, matrix)
        with pytest.raises(ValueError):
            estimate_density(model, matrix)
        with pytest.raises(ValueError):
            query_radius_of_kth(model.index, matrix, 1)
