import json
import math

import numpy as np
import pytest

from knnsweep import (
    MetricReport,
    UndefinedRSquaredError,
    mse,
    r_squared,
    report,
    rmse,
    sse,
    ssr,
    sst,
)
from knnsweep.metrics import report_columns


class TestExamples:
    def test_sse_perfect_prediction(self):
        assert sse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_sse_unit_residuals(self):
        assert sse([0.0, 0.0], [1.0, 1.0]) == 2.0

    def test_sse_mixed(self):
        assert sse([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 8.0

    def test_mse_rmse(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert mse([0.0], [3.0]) == 9.0
        assert rmse([0.0], [3.0]) == 3.0
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_r_squared_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r_squared_mean_predictor(self):
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_r_squared_worse_than_mean(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -3.0

    def test_ssr_sst(self):
        assert ssr([2.0, 2.0, 2.0], 2.0) == 0.0
        assert sst([1.0, 2.0, 3.0], 2.0) == 2.0
        assert sst([5.0, 5.0], 5.0) == 0.0


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sse([1.0], [1.0, 2.0])

    def test_empty_vectors(self):
        with pytest.raises(ValueError, match="empty"):
            mse([], [])

    def test_sst_zero_is_distinct_error(self):
        with pytest.raises(UndefinedRSquaredError):
            r_squared([5.0, 5.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sse([np.nan], [1.0])

    def test_two_dimensional_y_rejected(self):
        with pytest.raises(ValueError, match="^y must be a 1-D vector$"):
            sse([[1.0]], [1.0])

    @pytest.mark.parametrize("fn", [ssr, sst])
    def test_sums_of_squares_of_empty_vectors(self, fn):
        with pytest.raises(ValueError, match=f"^{fn.__name__} is undefined for an empty vector$"):
            fn([], 0.0)

    @pytest.mark.parametrize("y, yhat, message", [
        ([1.0, 2.0], [1.0, 2.0], "yhat must be a 2-D matrix"),
        ([1.0, 2.0], [[1.0], [np.nan]], "yhat contains NaN or infinite values"),
        ([1.0, 2.0], [[1.0]], "length mismatch: 2 vs 1"),
        ([], np.zeros((0, 3)), "metrics are undefined for empty vectors"),
    ], ids=["1-d yhat", "nan", "length mismatch", "zero rows"])
    def test_report_columns_faults(self, y, yhat, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            report_columns(y, yhat)


class TestReport:
    def test_fields_match_scalar_operations(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(30):
            n = int(rng.integers(1, 100))
            y = rng.normal(0, 5, n)
            yhat = rng.normal(0, 5, n)
            rep = report(y, yhat)
            ybar = sum(float(v) for v in y) / n
            assert rep.n == n
            assert rep.sse == sse(y, yhat)
            assert rep.mse == mse(y, yhat)
            assert rep.rmse == rmse(y, yhat)
            assert rep.ssr == ssr(yhat, ybar)
            assert rep.sst == sst(y, ybar)
            if rep.sst > 0:
                assert rep.r_squared == r_squared(y, yhat)

    def test_constant_truth_marks_r_squared_absent(self):
        rep = report([5.0, 5.0], [1.0, 2.0])
        assert rep.r_squared is None
        assert rep.rmse > 0

    def test_json_shape(self):
        rep = report([1.0, 2.0], [1.0, 2.0])
        d = rep.as_dict()
        assert list(d) == ["n", "sse", "mse", "rmse", "r_squared", "ssr", "sst"]
        assert json.loads(json.dumps(d)) == d
        rep0 = report([5.0, 5.0], [1.0, 2.0])
        assert json.loads(json.dumps(rep0.as_dict()))["r_squared"] is None


class TestProperties:
    def test_identity_chain(self):
        rng = np.random.Generator(np.random.PCG64(32))
        for _ in range(200):
            n = int(rng.integers(1, 300))
            y = rng.normal(0, 10, n)
            yhat = y + rng.normal(0, 2, n)
            rep = report(y, yhat)
            assert rep.mse == pytest.approx(rep.sse / n, rel=1e-12)
            assert rep.rmse == pytest.approx(math.sqrt(rep.mse), rel=1e-12)

    def test_rmse_lower_orientation(self):
        rng = np.random.Generator(np.random.PCG64(33))
        for _ in range(50):
            y = rng.normal(0, 5, 40)
            assert rmse(y, y) <= rmse(y, rng.normal(0, 5, 40))

    def test_r_squared_at_most_one(self):
        rng = np.random.Generator(np.random.PCG64(34))
        for _ in range(200):
            n = int(rng.integers(2, 100))
            y = rng.normal(0, 5, n)
            yhat = rng.normal(0, 5, n)
            assert r_squared(y, yhat) <= 1.0

    def test_mean_predictor_anchor(self):
        rng = np.random.Generator(np.random.PCG64(35))
        for _ in range(50):
            n = int(rng.integers(2, 200))
            y = rng.normal(0, 5, n)
            ybar = float(np.mean(y))
            assert abs(r_squared(y, np.full(n, ybar))) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(36))
        y = rng.normal(0, 5, 60)
        yhat = rng.normal(0, 5, 60)
        base = r_squared(y, yhat)
        for c in (1.0, -3.5, 1000.0):
            assert r_squared(y + c, yhat + c) == pytest.approx(base, abs=1e-9)

    def test_ols_decomposition(self):
        # for least-squares fits with intercept, SST = SSR + SSE
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(20):
            n = 120
            x = rng.normal(0, 1, (n, 3))
            y = x @ np.array([2.0, -1.0, 0.5]) + rng.normal(0, 1, n) + 4.0
            design = np.column_stack([np.ones(n), x])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            yhat = design @ coef
            rep = report(y, yhat)
            assert abs(rep.sst - (rep.ssr + rep.sse)) <= 1e-9 * rep.sst

    def test_report_is_frozen(self):
        rep = report([1.0, 2.0], [1.0, 2.0])
        assert isinstance(rep, MetricReport)
        with pytest.raises(AttributeError):
            rep.sse = 5.0
