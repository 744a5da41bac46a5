import re

import numpy as np
import pytest

from knnsweep import (
    MetricReport,
    SearchBackend,
    SplitSpec,
    SweepConfig,
    SweepResult,
    WeightingMode,
    apply_standardizer,
    emit_chart,
    emit_table,
    fit,
    fit_standardizer,
    predict,
    report,
    rmse,
    run_sweep,
    select_best,
    split,
)

from conftest import make_dataset


def _linear_dataset(n=200, seed=50, noise=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0, 10, (n, 2))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + rng.normal(0, noise, n)
    return make_dataset(x, target=y)


def _constant_dataset(n=30):
    rng = np.random.Generator(np.random.PCG64(51))
    return make_dataset(rng.uniform(0, 10, (n, 2)), target=np.full(n, 7.0))


def _mk_report(rmse_v, r2_v=None):
    return MetricReport(
        n=1, sse=rmse_v**2, mse=rmse_v**2, rmse=rmse_v, r_squared=r2_v, ssr=0.0, sst=1.0
    )


class TestRunSweep:
    def test_row_cardinality_and_totality(self):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=50))
        assert len(result.rows) == 50
        assert [k for k, _ in result.rows] == list(range(1, 51))
        assert all(np.isfinite(rep.rmse) for _, rep in result.rows)

    def test_constant_target_dataset(self):
        result = run_sweep(_constant_dataset(), SweepConfig(k_min=1, k_max=5))
        for _, rep in result.rows:
            assert rep.rmse == 0.0
            assert rep.r_squared is None
        assert result.best_k_r2 is None
        with pytest.raises(ValueError, match="undefined"):
            select_best(result, "r2")

    def test_k_max_equals_train_size_matches_mean_predictor(self):
        data = _linear_dataset(n=60)
        spec = SplitSpec(train_fraction=0.8, seed=3)
        config = SweepConfig(k_min=48, k_max=48, split=spec)
        result = run_sweep(data, config)
        train, test = split(data, spec)
        scaler = fit_standardizer(train)
        train_s = apply_standardizer(scaler, train)
        test_s = apply_standardizer(scaler, test)
        mean = float(np.mean(train_s.target))
        oracle = rmse(test_s.target, np.full(test_s.n_rows, mean))
        assert result.rows[0][1].rmse == pytest.approx(oracle, abs=1e-9)
        # constant predictions can never beat the test-mean baseline
        assert result.rows[0][1].r_squared <= 1e-9

    def test_rows_match_per_k_refits_bit_exactly(self):
        data = _linear_dataset(n=80)
        spec = SplitSpec(train_fraction=0.75, seed=9)
        config = SweepConfig(k_min=1, k_max=12, split=spec)
        result = run_sweep(data, config)
        train, test = split(data, spec)
        scaler = fit_standardizer(train)
        train_s = apply_standardizer(scaler, train)
        test_s = apply_standardizer(scaler, test)
        for k, rep in result.rows:
            model = fit(train_s, k=k, metric=config.metric,
                        weighting=config.weighting, backend=config.backend)
            oracle = report(test_s.target, predict(model, test_s))
            assert rep == oracle

    def test_backend_independence_bit_exact(self):
        data = _linear_dataset(n=90)
        base = dict(k_min=1, k_max=20, split=SplitSpec(seed=5))
        a = run_sweep(data, SweepConfig(backend=SearchBackend.BRUTE_FORCE, **base))
        b = run_sweep(data, SweepConfig(backend=SearchBackend.KD_TREE, **base))
        assert a == b

    def test_inf_distances_with_inverse_weighting_raise_the_typed_error(self):
        data = make_dataset([i * 1e200 for i in range(10)], target=list(range(10)))
        config = SweepConfig(k_min=1, k_max=2, weighting=WeightingMode.INVERSE_DISTANCE,
                             standardize=False)
        with pytest.raises(ValueError, match="overflowed to inf"):
            run_sweep(data, config)

    def test_k_max_beyond_train_size(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_sweep(_linear_dataset(n=40), SweepConfig(k_min=1, k_max=33))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(k_min=0, k_max=5)
        with pytest.raises(ValueError):
            SweepConfig(k_min=6, k_max=5)


class TestSelectBest:
    def test_rmse_tie_breaks_to_smallest_k(self):
        rows = ((1, _mk_report(5.0)), (2, _mk_report(4.0)), (3, _mk_report(4.0)))
        result = SweepResult(rows=rows, best_k_rmse=2, best_k_r2=None)
        assert select_best(result, "rmse") == 2

    def test_single_row(self):
        result = SweepResult(rows=((4, _mk_report(1.0, 0.5)),), best_k_rmse=4, best_k_r2=4)
        assert select_best(result, "rmse") == 4
        assert select_best(result, "r2") == 4

    def test_matches_exhaustive_scan(self):
        rng = np.random.Generator(np.random.PCG64(52))
        for _ in range(30):
            ks = list(range(1, int(rng.integers(2, 40))))
            rows = tuple(
                (k, _mk_report(float(rng.uniform(0, 10)), float(rng.uniform(-1, 1))))
                for k in ks
            )
            result = SweepResult(rows=rows, best_k_rmse=ks[0], best_k_r2=ks[0])
            by_rmse = min(rows, key=lambda kr: (kr[1].rmse, kr[0]))[0]
            by_r2 = min(rows, key=lambda kr: (-kr[1].r_squared, kr[0]))[0]
            assert select_best(result, "rmse") == by_rmse
            assert select_best(result, "r2") == by_r2

    def test_run_sweep_optima_agree_with_select_best(self):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=40))
        assert result.best_k_rmse == select_best(result, "rmse")
        assert result.best_k_r2 == select_best(result, "r2")
        best = dict(result.rows)[result.best_k_rmse].rmse
        assert all(best <= rep.rmse for _, rep in result.rows)

    def test_empty_result(self):
        with pytest.raises(ValueError, match="^empty sweep result$"):
            select_best(SweepResult(rows=(), best_k_rmse=1, best_k_r2=None), "rmse")

    def test_unknown_criterion(self):
        result = SweepResult(rows=((1, _mk_report(1.0)),), best_k_rmse=1, best_k_r2=None)
        with pytest.raises(ValueError, match=r"^unknown criterion 'mae'; use 'rmse' or 'r2'$"):
            select_best(result, "mae")


class TestEmitTable:
    def test_header_and_row_count(self, tmp_path):
        result = run_sweep(_linear_dataset(n=40), SweepConfig(k_min=1, k_max=3))
        out = tmp_path / "sweep.csv"
        emit_table(result, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "k,rmse,r_squared,sse,mse,ssr,sst"

    def test_reload_reproduces_12_significant_digits(self, tmp_path):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=10))
        out = tmp_path / "sweep.csv"
        emit_table(result, out)
        lines = out.read_text().splitlines()[1:]
        for (k, rep), line in zip(result.rows, lines):
            cells = line.split(",")
            assert int(cells[0]) == k
            for cell, value in zip(
                cells[1:], (rep.rmse, rep.r_squared, rep.sse, rep.mse, rep.ssr, rep.sst)
            ):
                assert float(cell) == pytest.approx(value, rel=1e-11)

    def test_undefined_r_squared_rendering(self, tmp_path):
        result = run_sweep(_constant_dataset(), SweepConfig(k_min=1, k_max=5))
        out = tmp_path / "sweep.csv"
        emit_table(result, out)
        last = out.read_text().splitlines()[-1]
        assert last == (
            "5,0.000000000000,,0.000000000000,0.000000000000,"
            "0.000000000000,0.000000000000"
        )


class TestEmitChart:
    def test_polyline_vertex_count(self, tmp_path):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=50))
        out = tmp_path / "rmse.svg"
        emit_chart(result, "rmse", out, title="RMSE over k")
        text = out.read_text()
        assert text.count("<polyline") == 1
        points = re.search(r'points="([^"]+)"', text).group(1)
        assert len(points.split()) == 50
        assert "<svg" in text and 'width="800"' in text and 'height="500"' in text

    def test_byte_determinism(self, tmp_path):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=20))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_chart(result, "rmse", a, title="t")
        emit_chart(result, "rmse", b, title="t")
        assert a.read_bytes() == b.read_bytes()

    def test_best_k_marker_sits_on_its_vertex(self, tmp_path):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=30))
        out = tmp_path / "rmse.svg"
        emit_chart(result, "rmse", out, title="t")
        text = out.read_text()
        vertices = re.search(r'points="([^"]+)"', text).group(1).split()
        best = select_best(result, "rmse")
        ks = [k for k, _ in result.rows]
        expected_x = vertices[ks.index(best)].split(",")[0]
        cx = re.search(r'<circle cx="([0-9.]+)"', text).group(1)
        assert cx == expected_x
        assert f">k={best}</text>" in text

    def test_r2_chart(self, tmp_path):
        result = run_sweep(_linear_dataset(), SweepConfig(k_min=1, k_max=10))
        out = tmp_path / "r2.svg"
        emit_chart(result, "r2", out, title="fit")
        assert "R-squared" in out.read_text()

    def test_title_is_escaped_as_saxutils_escapes_it(self, tmp_path):
        from xml.sax.saxutils import escape
        title = """R&D <k> & "quotes" 'too' &amp;"""
        result = run_sweep(_linear_dataset(n=40), SweepConfig(k_min=1, k_max=3))
        out = tmp_path / "t.svg"
        emit_chart(result, "rmse", out, title=title)
        assert f'font-size="16">{escape(title)}</text>' in out.read_text()

    def test_too_few_defined_points(self, tmp_path):
        constant = run_sweep(_constant_dataset(), SweepConfig(k_min=1, k_max=5))
        with pytest.raises(ValueError, match="at least 2"):
            emit_chart(constant, "r2", tmp_path / "x.svg", title="t")
        single = run_sweep(_linear_dataset(n=40), SweepConfig(k_min=3, k_max=3))
        with pytest.raises(ValueError, match="at least 2"):
            emit_chart(single, "rmse", tmp_path / "y.svg", title="t")

    def test_unknown_metric(self, tmp_path):
        result = run_sweep(_linear_dataset(n=40), SweepConfig(k_min=1, k_max=3))
        with pytest.raises(ValueError, match=r"^unknown chart metric 'mae'; use 'rmse' or 'r2'$"):
            emit_chart(result, "mae", tmp_path / "z.svg", title="t")
