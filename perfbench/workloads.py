"""Deterministic workload generator for the knnsweep benchmark.

Every input is drawn from one ``numpy.random.Generator(PCG64(seed))``, so
the same seed always yields the same CSV bytes. The program under test only
ever sees the CSV files; the in-memory arrays are handed to the oracle.

Each workload stresses a different layer of the CLI path:

* ``sweep_kd_d3``  -- the paper's headline call (kd-tree, k = 1..76): the
  only workload where per-k evaluation is large.
* ``predict_brute_d8`` -- brute-force neighbor query dominates; it never
  enters the sweep, so a sweep-only change must leave it unchanged.
* ``density_kd_d2`` -- CSV parse and kd-tree build dominate and queries are
  cheap: heavy build, light query, the reverse of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload and the sentence saying why it exists."""

    name: str
    command: str
    n_train: int
    n_query: int
    dim: int
    k: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_kd_d3",
            command="sweep",
            n_train=10_000,  # rows in the one input file; the CLI splits 80/20
            n_query=2_000,  # test rows the default split leaves
            dim=3,
            k=76,
            why="The paper's headline sweep with all CLI defaults; the only "
                "workload where per-k evaluation (combine + metrics) is a large "
                "share next to the kd-tree query.",
        ),
        Workload(
            name="predict_brute_d8",
            command="predict",
            n_train=20_000,
            n_query=1_000,
            dim=8,
            k=10,
            why="Brute-force query dominates and the sweep is never entered, so "
                "a sweep-only change must show no change here; 10% of queries "
                "copy a training row to run the inverse-weighting exact-match rule.",
        ),
        Workload(
            name="density_kd_d2",
            command="density",
            n_train=100_000,
            n_query=2_000,
            dim=2,
            k=10,
            why="CSV parse and kd-tree build dominate while queries are cheap; "
                "a duplicated point pool gives mass ties and zero-radius (inf) "
                "answers.",
        ),
    )
}

# predict_brute_d8: share of queries that are exact copies of a training row.
EXACT_COPY_SHARE = 0.10
# density_kd_d2: pool points, each repeated more than k times, and the number
# of queries placed exactly on a pool point.
POOL_POINTS = 5
POOL_REPEATS = 12
POOL_QUERIES = 20


@dataclass(frozen=True)
class Inputs:
    """Generated arrays (what the oracle reads) and the CSV paths the CLI reads."""

    train_x: np.ndarray
    train_y: np.ndarray | None
    query_x: np.ndarray | None
    train_csv: Path
    query_csv: Path | None


def _write_csv(path: Path, names, columns: np.ndarray) -> None:
    # repr() is the shortest round-trip form, so the CLI parses back the
    # exact float64 values the oracle computes with.
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in columns.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(name: str, seed: int, workdir: Path) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them under ``workdir``."""
    w = WORKLOADS[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    feature_names = [f"x{j + 1}" for j in range(w.dim)]
    train_csv = workdir / f"{name}_train.csv"

    if w.command == "sweep":
        x = rng.uniform(0.0, 10.0, size=(w.n_train, w.dim))
        y = (2.0 * x[:, 0] - 1.5 * x[:, 1] + 3.0 * np.sin(x[:, 2])
             + rng.normal(0.0, 1.0, size=w.n_train))
        _write_csv(train_csv, [*feature_names, "y"], np.column_stack([x, y]))
        return Inputs(x, y, None, train_csv, None)

    query_csv = workdir / f"{name}_query.csv"
    if w.command == "predict":
        coef = rng.normal(0.0, 1.0, size=w.dim)
        x = rng.normal(0.0, 1.0, size=(w.n_train, w.dim))
        y = x @ coef + 0.5 * np.tanh(x[:, 0] * x[:, 1]) + rng.normal(0.0, 0.3, size=w.n_train)
        q = rng.normal(0.0, 1.0, size=(w.n_query, w.dim))
        n_copy = int(round(EXACT_COPY_SHARE * w.n_query))
        slots = rng.choice(w.n_query, size=n_copy, replace=False)
        q[slots] = x[rng.choice(w.n_train, size=n_copy, replace=False)]
        _write_csv(train_csv, [*feature_names, "y"], np.column_stack([x, y]))
        _write_csv(query_csv, feature_names, q)
        return Inputs(x, y, q, train_csv, query_csv)

    centers = rng.uniform(-20.0, 20.0, size=(3, w.dim))
    n_pool_rows = POOL_POINTS * POOL_REPEATS
    n_free = w.n_train - n_pool_rows
    x = centers[rng.integers(0, 3, size=n_free)] + rng.normal(0.0, 3.0, size=(n_free, w.dim))
    pool = rng.uniform(-20.0, 20.0, size=(POOL_POINTS, w.dim))
    x = np.concatenate([x, np.repeat(pool, POOL_REPEATS, axis=0)])
    x = x[rng.permutation(w.n_train)]
    q = centers[rng.integers(0, 3, size=w.n_query)] + rng.normal(0.0, 3.0, size=(w.n_query, w.dim))
    slots = rng.choice(w.n_query, size=POOL_QUERIES, replace=False)
    q[slots] = pool[rng.integers(0, POOL_POINTS, size=POOL_QUERIES)]
    _write_csv(train_csv, feature_names, x)
    _write_csv(query_csv, feature_names, q)
    return Inputs(x, None, q, train_csv, query_csv)


def argv_for(name: str, inputs: Inputs, outdir: Path) -> tuple[list[str], dict[str, Path]]:
    """The CLI arguments for one job and the output files it must write."""
    w = WORKLOADS[name]
    if w.command == "sweep":
        outs = {"table": outdir / "sweep.csv", "rmse_svg": outdir / "rmse.svg",
                "r2_svg": outdir / "r2.svg"}
        argv = ["sweep", "--data", str(inputs.train_csv), "--target", "y",
                "--out-table", str(outs["table"]), "--plot-rmse", str(outs["rmse_svg"]),
                "--plot-r2", str(outs["r2_svg"])]
    elif w.command == "predict":
        outs = {"predictions": outdir / "predictions.csv"}
        argv = ["predict", "--train", str(inputs.train_csv), "--query", str(inputs.query_csv),
                "--target", "y", "--k", str(w.k), "--backend", "brute",
                "--weighting", "inverse", "--out", str(outs["predictions"])]
    else:
        outs = {"density": outdir / "density.csv"}
        argv = ["density", "--train", str(inputs.train_csv), "--query", str(inputs.query_csv),
                "--k", str(w.k), "--out", str(outs["density"])]
    return argv, outs
