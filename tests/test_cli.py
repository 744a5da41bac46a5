import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from knnsweep import (
    SplitSpec,
    SweepConfig,
    cli,
    fit,
    load_csv,
    predict,
    run_sweep,
)

from conftest import REPO_ROOT, make_dataset


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "knnsweep", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


@pytest.fixture
def sample():
    return REPO_ROOT / "data" / "synthetic.csv"


class TestSweepCommand:
    def test_happy_path_writes_all_artifacts(self, sample, tmp_path):
        table = tmp_path / "table.csv"
        rmse_svg = tmp_path / "rmse.svg"
        r2_svg = tmp_path / "r2.svg"
        proc = run_cli(
            "sweep", "--data", sample, "--target", "y",
            "--out-table", table, "--plot-rmse", rmse_svg, "--plot-r2", r2_svg,
        )
        assert proc.returncode == 0, proc.stderr
        assert table.exists() and rmse_svg.exists() and r2_svg.exists()
        assert proc.stdout.startswith("best_k_rmse=")
        assert "best_k_r2=" in proc.stdout
        lines = table.read_text().splitlines()
        assert lines[0] == "k,rmse,r_squared,sse,mse,ssr,sst"
        assert len(lines) == 77

    def test_k_max_beyond_train_size_names_constraint(self, sample, tmp_path):
        proc = run_cli(
            "sweep", "--data", sample, "--target", "y",
            "--k-max", "500", "--out-table", tmp_path / "t.csv",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "k_max" in proc.stderr and "500" in proc.stderr

    def test_unknown_flag_is_usage_error(self, sample, tmp_path):
        proc = run_cli(
            "sweep", "--data", sample, "--target", "y",
            "--out-table", tmp_path / "t.csv", "--frobnicate",
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_subcommand_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_categorical_hamming_sweep(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(63))
        labels = np.array(["red", "green", "blue", "grey"])
        lines = ["c1,c2,y"]
        for _ in range(60):
            a, b = labels[rng.integers(0, 4)], labels[rng.integers(0, 4)]
            lines.append(f"{a},{b},{rng.normal(0, 1):.6f}")
        data = tmp_path / "cats.csv"
        data.write_text("\n".join(lines) + "\n")
        table = tmp_path / "t.csv"
        proc = run_cli(
            "sweep", "--data", data, "--target", "y", "--categorical", "c1,c2",
            "--metric", "hamming", "--backend", "brute",
            "--k-min", "1", "--k-max", "8", "--out-table", table,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(table.read_text().splitlines()) == 9

    def test_categorical_names_are_stripped_like_the_header(self, tmp_path):
        # the header's names are stripped, so "c1, c2" must name c1 and c2
        data = tmp_path / "cats.csv"
        data.write_text("c1,c2,y\nred,a,1\nblue,b,2\nred,b,3\ngreen,a,4\nblue,a,5\n")
        tables = []
        for names in ("c1,c2", "c1, c2", " c1 ,,c2, "):
            table = tmp_path / f"t{len(tables)}.csv"
            proc = run_cli(
                "sweep", "--data", data, "--target", "y", "--categorical", names,
                "--metric", "hamming", "--backend", "brute", "--k-min", "1", "--k-max", "2",
                "--split", "0.6", "--out-table", table,
            )
            assert proc.returncode == 0, proc.stderr
            tables.append((proc.stdout, table.read_bytes()))
        assert tables[1] == tables[0] and tables[2] == tables[0]

    def test_hamming_with_kdtree_is_domain_error(self, tmp_path):
        data = tmp_path / "cats.csv"
        data.write_text("c1,y\nred,1\nblue,2\nred,3\ngreen,4\n")
        proc = run_cli(
            "sweep", "--data", data, "--target", "y", "--categorical", "c1",
            "--metric", "hamming", "--k-min", "1", "--k-max", "2",
            "--out-table", tmp_path / "t.csv",
        )
        assert proc.returncode == 1
        assert "kd_tree" in proc.stderr

    def test_non_default_flags_smoke(self, sample, tmp_path):
        table = tmp_path / "t.csv"
        proc = run_cli(
            "sweep", "--data", sample, "--target", "y",
            "--metric", "manhattan", "--weighting", "inverse", "--backend", "brute",
            "--k-min", "2", "--k-max", "6", "--split", "0.7", "--seed", "11",
            "--no-standardize", "--out-table", table,
        )
        assert proc.returncode == 0, proc.stderr
        lines = table.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4", "5", "6"]

    def test_determinism_across_runs(self, sample, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            table = tmp_path / f"{tag}.csv"
            svg = tmp_path / f"{tag}.svg"
            proc = run_cli(
                "sweep", "--data", sample, "--target", "y",
                "--out-table", table, "--plot-rmse", svg,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((table.read_bytes(), svg.read_bytes(), proc.stdout))
        assert outputs[0] == outputs[1]


    def test_constant_target_leaves_best_r2_undefined(self, capsys, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("a,y\n" + "".join(f"{i},4\n" for i in range(30)))
        assert cli.main(["sweep", "--data", str(p), "--target", "y", "--k-max", "5",
                         "--out-table", str(tmp_path / "t.csv")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "best_k_r2=undefined (constant test targets)"


class TestEvalCommand:
    def test_json_has_all_seven_keys(self, sample):
        proc = run_cli("eval", "--data", sample, "--target", "y", "--k", "1")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert list(payload) == ["n", "sse", "mse", "rmse", "r_squared", "ssr", "sst"]

    def test_constant_target_gives_null_r_squared(self, tmp_path):
        p = tmp_path / "const.csv"
        rows = "\n".join(f"{i},{i % 7},4" for i in range(20))
        p.write_text(f"a,b,y\n{rows}\n")
        proc = run_cli("eval", "--data", p, "--target", "y", "--k", "2")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["r_squared"] is None

    def test_matches_sweep_row(self, sample):
        proc = run_cli("eval", "--data", sample, "--target", "y", "--k", "7")
        payload = json.loads(proc.stdout)
        data = load_csv(sample, "y")
        result = run_sweep(data, SweepConfig(k_min=7, k_max=7, split=SplitSpec()))
        assert payload == result.rows[0][1].as_dict()


class TestPredictCommand:
    def test_self_queries_reproduce_targets(self, sample, tmp_path):
        data = load_csv(sample, "y")
        query = tmp_path / "query.csv"
        lines = ["x1,x2,x3"]
        lines += [
            ",".join(f"{v:.17g}" for v in row) for row in data.features[:25]
        ]
        query.write_text("\n".join(lines) + "\n")
        out = tmp_path / "preds.csv"
        proc = run_cli(
            "predict", "--train", sample, "--query", query,
            "--target", "y", "--k", "1", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "row_index,prediction"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == data.target[:25].tolist()

    def test_brute_force_output_does_not_depend_on_blas_threads(self, tmp_path):
        # The euclidean filter's matmul may run on BLAS threads, which can
        # change its summation order; only the candidate set may change.
        rng = np.random.default_rng(2000)
        rows = rng.normal(size=(2000, 9))
        queries = np.vstack([rng.normal(size=(180, 8)), rows[:20, :8]])
        train, query = tmp_path / "train.csv", tmp_path / "query.csv"
        header = ",".join(f"x{j}" for j in range(8))
        for path, table, names in ((train, rows, header + ",y"), (query, queries, header)):
            path.write_text("\n".join([names] + [",".join(f"{v:.17g}" for v in row)
                                                 for row in table]) + "\n")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"predictions_{threads}.csv"
            proc = run_cli("predict", "--train", train, "--query", query, "--target", "y",
                           "--k", "10", "--weighting", "inverse", "--backend", "brute",
                           "--out", out, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].splitlines()) == 201

    @pytest.mark.parametrize("header", ["x,y", "y,x"], ids=["feature-first", "target-first"])
    def test_byte_order_mark_on_the_training_file_only(self, tmp_path, capsys, header):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        rows = {"x,y": "1,10\n2,20\n", "y,x": "10,1\n20,2\n"}[header]
        train = tmp_path / "train.csv"
        train.write_bytes(f"\ufeff{header}\n{rows}".encode("utf-8"))
        query = tmp_path / "q.csv"
        query.write_text("x\n1.9\n")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--train", str(train), "--query", str(query),
                         "--target", "y", "--k", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text() == "row_index,prediction\n0,20\n"

    def test_mismatched_query_columns(self, sample, tmp_path):
        query = tmp_path / "bad.csv"
        query.write_text("x1,x2\n1,2\n")
        proc = run_cli(
            "predict", "--train", sample, "--query", query,
            "--target", "y", "--k", "1", "--out", tmp_path / "o.csv",
        )
        assert proc.returncode == 1
        assert "schema" in proc.stderr

    def test_matches_library_predictions(self, sample, tmp_path):
        rng = np.random.Generator(np.random.PCG64(61))
        queries = rng.uniform(0, 10, (12, 3))
        qpath = tmp_path / "q.csv"
        qpath.write_text(
            "x1,x2,x3\n"
            + "\n".join(",".join(f"{v:.17g}" for v in row) for row in queries)
            + "\n"
        )
        out = tmp_path / "p.csv"
        proc = run_cli(
            "predict", "--train", sample, "--query", qpath,
            "--target", "y", "--k", "4", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        got = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]

        train = load_csv(sample, "y")
        model = fit(train, k=4, standardize=True)
        expected = predict(model, make_dataset(queries, names=("x1", "x2", "x3")))
        assert got == expected.tolist()

    def test_categorical_query_uses_the_training_codes(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("c,y\na,1\nb,2\n")
        query = tmp_path / "query.csv"
        query.write_text("c\nb\n")
        out = tmp_path / "p.csv"
        args = ("predict", "--train", train, "--query", query, "--target", "y", "--k", "1",
                "--categorical", "c", "--metric", "hamming", "--backend", "brute", "--out", out)
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == "row_index,prediction\n0,2\n"
        query.write_text("c\nz\n")
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {query}: row 1, column 'c': label 'z' does not occur in the training data\n"

    @pytest.mark.parametrize("cell", ["0." + "0" * 139_998 + "1", "1\x00"], ids=["oversized", "nul"])
    def test_cell_csv_reader_rejects_is_one_error_line(self, sample, tmp_path, cell):
        # csv.reader raises csv.Error on a field over its 131072-character
        # limit, and on a NUL byte before Python 3.11
        query = tmp_path / "q.csv"
        query.write_text(f"x1,x2,x3\n1,2,3\n{cell},2,3\n")
        proc = run_cli(
            "predict", "--train", sample, "--query", query,
            "--target", "y", "--k", "1", "--out", tmp_path / "o.csv",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {query}: row 2") and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("line, where", [(0, "header row"), (2, "row 2"), (900, "row 900")])
    def test_undecodable_byte_names_the_file_and_row(self, sample, tmp_path, line, where):
        # over 8 KiB: the text decoder reads ahead of csv.reader, so an
        # error caught around the row loop would name an earlier row
        lines = [b"x1,x2,x3"] + [b"%d.5,%d,%d" % (i, i % 7, i % 3) for i in range(1, 1200)]
        lines[line] = b"\xff" + lines[line]
        query = tmp_path / "q.csv"
        query.write_bytes(b"\n".join(lines) + b"\n")
        assert query.stat().st_size > 8192
        proc = run_cli(
            "predict", "--train", sample, "--query", query,
            "--target", "y", "--k", "1", "--out", tmp_path / "o.csv",
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {query}: {where}: cannot decode byte 0xff as UTF-8\n"


class TestDensityCommand:
    @pytest.fixture
    def uniform_train(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(62))
        p = tmp_path / "train.csv"
        p.write_text("x\n" + "\n".join(f"{v:.17g}" for v in rng.uniform(0, 1, 1000)) + "\n")
        return p

    def test_interior_densities_near_one(self, uniform_train, tmp_path):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n" + "\n".join(f"{v:.17g}" for v in np.linspace(0.05, 0.95, 100)) + "\n")
        out = tmp_path / "d.csv"
        proc = run_cli(
            "density", "--train", uniform_train, "--query", qpath, "--k", "10", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "row_index,density"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert 0.8 <= np.mean(values) <= 1.2

    def test_zero_radius_sentinel(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x\n0\n1\n2\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n1\n0.25\n")
        out = tmp_path / "d.csv"
        proc = run_cli("density", "--train", train, "--query", qpath, "--k", "1", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "0,inf"
        assert not lines[2].endswith("inf")

    def test_non_euclidean_metric_rejected(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x\n0\n1\n")
        proc = run_cli(
            "density", "--train", train, "--query", train,
            "--k", "1", "--metric", "manhattan", "--out", tmp_path / "d.csv",
        )
        assert proc.returncode == 1
        assert "euclidean" in proc.stderr


class TestHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("sweep", ["--data", "--target", "--categorical", "--metric", "--weighting",
                       "--backend", "--k-min", "--k-max", "--split", "--seed",
                       "--no-standardize", "--out-table", "--plot-rmse", "--plot-r2"]),
            ("eval", ["--data", "--target", "--categorical", "--metric", "--weighting",
                      "--backend", "--k", "--split", "--seed", "--no-standardize"]),
            ("predict", ["--train", "--query", "--target", "--k", "--categorical",
                         "--metric", "--weighting", "--backend", "--no-standardize", "--out"]),
            ("density", ["--train", "--query", "--k", "--metric", "--out"]),
        ],
    )
    def test_help_lists_every_flag(self, command, flags):
        proc = run_cli(command, "--help")
        assert proc.returncode == 0
        for flag in flags:
            assert flag in proc.stdout


class TestOverflowLimits:
    def test_inf_distances_with_inverse_weighting_is_one_error_line(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x,y\n1e200,1\n-1e200,2\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n0\n")
        proc = run_cli(
            "predict", "--train", train, "--query", qpath, "--target", "y", "--k", "2",
            "--weighting", "inverse", "--no-standardize", "--out", tmp_path / "p.csv",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "overflowed to inf" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command, k_flags", [("eval", ["--k", "1"]),
                                                  ("sweep", ["--k-max", "2"])])
    def test_inf_distances_in_sweep_and_eval_is_the_typed_error(self, tmp_path,
                                                                command, k_flags):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n" + "".join(f"{i}e200,{i}\n" for i in range(10)))
        extra = ["--out-table", tmp_path / "t.csv"] if command == "sweep" else []
        proc = run_cli(command, "--data", data, "--target", "y", *k_flags,
                       "--weighting", "inverse", "--no-standardize", *extra)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "overflowed to inf" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("x, expected", [("1e-150", "0,inf"), ("1e150", "0,0")])
    def test_density_ball_volume_out_of_float_range(self, tmp_path, x, expected):
        train = tmp_path / "train.csv"
        train.write_text(f"a,b,c\n0,0,0\n{x},0,0\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("a,b,c\n0,0,0\n")
        out = tmp_path / "d.csv"
        proc = run_cli("density", "--train", train, "--query", qpath, "--k", "2", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines() == ["row_index,density", expected]


class TestOverflowFallbacks:
    def test_density_in_350_dimensions_writes_one_row(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(350))
        features = rng.normal(size=(20, 350))
        header = ",".join(f"c{j}" for j in range(350))
        train = tmp_path / "train.csv"
        np.savetxt(train, features, delimiter=",", header=header, comments="")
        qpath = tmp_path / "q.csv"
        np.savetxt(qpath, np.zeros((1, 350)), delimiter=",", header=header, comments="")
        out = tmp_path / "d.csv"
        proc = run_cli("density", "--train", train, "--query", qpath, "--k", "2", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "row_index,density" and len(lines) == 2
        assert lines[1].startswith("0,")
        # k / (n V) with V = pi^175 r^350 / 175!, in base-10 logs of exact factors.
        radius = np.sort(np.sqrt((features**2).sum(axis=1)))[1]
        log10_volume = (175 * math.log10(math.pi) + 350 * math.log10(radius)
                        - math.log10(math.factorial(175)))
        expected = 10 ** (math.log10(2 / 20) - log10_volume)
        assert expected == pytest.approx(1.3158e-208, rel=1e-4, abs=0)
        assert float(lines[1][2:]) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_standardizing_values_above_1e154_keeps_the_exact_match(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x,y\n1e300,1\n-1e300,2\n5e299,3\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n5e299\n")
        out = tmp_path / "p.csv"
        proc = run_cli("predict", "--train", train, "--query", qpath, "--target", "y",
                       "--k", "1", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert out.read_text().splitlines() == ["row_index,prediction", "0,3"]

    def test_standardizing_values_at_the_float_limit_keeps_the_exact_match(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x,y\n1.7e308,1\n1.7e308,2\n-1.7e308,3\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n-1.7e308\n")
        out = tmp_path / "p.csv"
        proc = run_cli("predict", "--train", train, "--query", qpath, "--target", "y",
                       "--k", "1", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert out.read_text().splitlines() == ["row_index,prediction", "0,3"]

    def test_kd_build_over_coordinates_spanning_the_float_range_warns_nothing(
            self, tmp_path, capsys):
        # A node's spread max - min overflows to inf; the tree is still right.
        train = tmp_path / "train.csv"
        train.write_text("x,y\n" + "1.7e308,1\n-1.7e308,2\n" * 10)
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n0\n")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--train", str(train), "--query", str(qpath),
                         "--target", "y", "--k", "1", "--no-standardize",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["row_index,prediction", "0,1"]
        assert capsys.readouterr().err == ""
