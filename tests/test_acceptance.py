"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from knnsweep import (
    DistanceMetric,
    SearchBackend,
    SplitSpec,
    SweepConfig,
    UndefinedRSquaredError,
    ZeroRadiusError,
    build_index,
    estimate_density,
    euclidean,
    fit,
    hamming,
    load_csv,
    manhattan,
    mse,
    predict,
    query,
    r_squared,
    rmse,
    run_sweep,
    split,
    sse,
)

from conftest import make_dataset
from test_cli import run_cli


@contextmanager
def criterion(label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS ({time.monotonic() - start:.2f}s)")


def test_criterion_1_metric_identities():
    with criterion("criterion 1 (metric identities)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(201))
        for _ in range(1000):
            n = int(rng.integers(1, 513))
            y = rng.normal(0, 10, n)
            yhat = rng.normal(0, 10, n)
            s = sse(y, yhat)
            m = mse(y, yhat)
            r = rmse(y, yhat)
            assert abs(m - s / n) <= 1e-12 * max(abs(m), 1e-300)
            assert abs(r - math.sqrt(m)) <= 1e-12 * max(abs(r), 1e-300)
            if n >= 2:  # SST > 0 needed for a defined R²
                assert abs(r_squared(y, y) - 1.0) <= 1e-12
                ybar = float(np.mean(y))
                assert abs(r_squared(y, np.full(n, ybar))) <= 1e-12
        assert time.monotonic() - start < 5.0


def test_criterion_2_distance_axioms():
    with criterion("criterion 2 (distance axioms)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(202))
        cases = [(euclidean, False), (manhattan, False), (hamming, True)]
        for fn, integer in cases:
            for _ in range(10_000):
                dim = int(rng.integers(1, 9))
                if integer:
                    x, y, z = (rng.integers(0, 5, dim).astype(float) for _ in range(3))
                else:
                    x, y, z = (rng.uniform(-10, 10, dim) for _ in range(3))
                dxy = fn(x, y)
                dyz = fn(y, z)
                dxz = fn(x, z)
                assert dxy >= 0.0 and dyz >= 0.0 and dxz >= 0.0
                assert dxy == fn(y, x)
                assert fn(x, x) == 0.0
                assert dxz <= dxy + dyz + 1e-12
        assert time.monotonic() - start < 10.0


def test_criterion_3_backend_oracle_equivalence():
    with criterion("criterion 3 (backend equivalence)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(203))
        metrics = [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN]
        for i in range(1000):
            n = int(rng.integers(1, 2001))
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 51))
            metric = metrics[i % 2]
            ds = make_dataset(rng.normal(0, 1, (n, d)))
            q = rng.normal(0, 1, d)
            brute = query(build_index(ds, metric, SearchBackend.BRUTE_FORCE), q, k)
            kdtree = query(build_index(ds, metric, SearchBackend.KD_TREE), q, k)
            assert np.array_equal(brute.indices, kdtree.indices)
            assert np.array_equal(brute.distances, kdtree.distances)
        assert time.monotonic() - start < 60.0


def test_criterion_4_regressor_limits():
    with criterion("criterion 4 (regressor limits)"):
        rng = np.random.Generator(np.random.PCG64(204))
        train = make_dataset(rng.normal(0, 1, (120, 4)), target=rng.normal(0, 5, 120))

        nearest = fit(train, k=1)
        assert predict(nearest, train).tolist() == train.target.tolist()

        full = fit(train, k=120)
        mean = float(np.mean(train.target))
        test_set = make_dataset(rng.normal(0, 1, (40, 4)), target=rng.normal(0, 5, 40))
        preds = predict(full, test_set)
        for p in preds.tolist():
            assert abs(p - mean) <= 1e-12 * max(1.0, abs(mean))
        rmse_full = rmse(test_set.target, preds)
        rmse_mean = rmse(test_set.target, np.full(40, mean))
        assert abs(rmse_full - rmse_mean) <= 1e-9


def test_criterion_5_sweep_curve_shape(sample_csv):
    with criterion("criterion 5 (sweep curve shape)"):
        start = time.monotonic()
        data = load_csv(sample_csv, "y")
        spec = SplitSpec(train_fraction=0.8, seed=42)
        result = run_sweep(data, SweepConfig(k_min=1, k_max=76, split=spec))
        assert result.best_k_rmse <= 15
        best_rmse = dict(result.rows)[result.best_k_rmse].rmse

        train, _ = split(data, spec)
        n_train = train.n_rows
        at_n = run_sweep(data, SweepConfig(k_min=n_train, k_max=n_train, split=spec))
        assert best_rmse < at_n.rows[0][1].rmse

        assert result.best_k_r2 == result.best_k_rmse
        assert time.monotonic() - start < 10.0


def test_criterion_6_density_sanity():
    with criterion("criterion 6 (density sanity)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(123))
        ds = make_dataset(rng.uniform(0, 1, 1000))
        model = fit(ds, k=10)
        values = [
            estimate_density(model, [q]).value for q in np.linspace(0.05, 0.95, 100)
        ]
        assert 0.8 <= float(np.mean(values)) <= 1.2
        assert time.monotonic() - start < 5.0


def test_criterion_7_end_to_end_determinism(sample_csv, tmp_path):
    with criterion("criterion 7 (end-to-end determinism)"):
        outputs = []
        for tag in ("first", "second"):
            table = tmp_path / f"{tag}.csv"
            rmse_svg = tmp_path / f"{tag}_rmse.svg"
            r2_svg = tmp_path / f"{tag}_r2.svg"
            proc = run_cli(
                "sweep", "--data", sample_csv, "--target", "y",
                "--out-table", table, "--plot-rmse", rmse_svg, "--plot-r2", r2_svg,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (table.read_bytes(), rmse_svg.read_bytes(), r2_svg.read_bytes(), proc.stdout)
            )
        assert outputs[0] == outputs[1]


def test_criterion_8_error_surface():
    with criterion("criterion 8 (error surface)"):
        train = make_dataset(np.arange(5.0), target=np.arange(5.0))
        with pytest.raises(ValueError, match="out of range"):
            fit(train, k=6)

        with pytest.raises(UndefinedRSquaredError):
            r_squared([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])

        numeric = make_dataset([[0.0, 1.5], [2.0, 3.5]])
        with pytest.raises(ValueError, match="categorical"):
            build_index(numeric, DistanceMetric.HAMMING, SearchBackend.BRUTE_FORCE)

        model = fit(make_dataset([0.0, 1.0]), k=1)
        with pytest.raises(ZeroRadiusError):
            estimate_density(model, [0.0])
