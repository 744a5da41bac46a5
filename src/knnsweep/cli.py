"""Command-line driver: sweep, eval, predict, density.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 flag-parse/usage error. Data and JSON go to stdout or files; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset import SplitSpec, load_csv, load_features_csv
from .distance import DistanceMetric
from .neighbors import SearchBackend
from .regressor import WeightingMode, estimate_densities, fit, predict
from .sweep import SweepConfig, emit_chart, emit_table, run_sweep

_METRICS = {m.value: m for m in DistanceMetric}
_WEIGHTINGS = {
    "uniform": WeightingMode.UNIFORM,
    "inverse": WeightingMode.INVERSE_DISTANCE,
}
_BACKENDS = {
    "brute": SearchBackend.BRUTE_FORCE,
    "kdtree": SearchBackend.KD_TREE,
}


def _comma_list(text: str) -> list[str]:
    # stripped like the header names they must match: "c1, c2" names c1 and c2
    return [name for name in (part.strip() for part in text.split(",")) if name]


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--categorical", type=_comma_list, default=[], metavar="NAME,...",
                   help="comma-separated names of categorical feature columns")
    p.add_argument("--metric", choices=sorted(_METRICS), default="euclidean",
                   help="distance metric (default: euclidean)")
    p.add_argument("--weighting", choices=sorted(_WEIGHTINGS), default="uniform",
                   help="neighbor weighting mode (default: uniform)")
    p.add_argument("--backend", choices=sorted(_BACKENDS), default="kdtree",
                   help="neighbor search backend (default: kdtree)")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip z-scoring of numeric features")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--split", type=float, default=0.8, metavar="FRACTION",
                   help="train fraction in (0,1) (default: 0.8)")
    p.add_argument("--seed", type=int, default=42, metavar="UINT",
                   help="shuffle seed (default: 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knn-sweep",
        description="KNN regression: k sweeps, single-k evaluation, "
                    "prediction, and density estimation over CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_sweep = sub.add_parser("sweep", help="evaluate every k in a range, emit table and charts")
    p_sweep.add_argument("--data", required=True, metavar="PATH", help="input CSV")
    p_sweep.add_argument("--target", required=True, metavar="NAME", help="target column name")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--k-min", type=int, default=1, metavar="INT",
                         help="smallest k (default: 1)")
    p_sweep.add_argument("--k-max", type=int, default=76, metavar="INT",
                         help="largest k (default: 76)")
    _add_split_flags(p_sweep)
    p_sweep.add_argument("--out-table", required=True, metavar="PATH",
                         help="where to write the per-k CSV table")
    p_sweep.add_argument("--plot-rmse", metavar="PATH", help="write an RMSE-vs-k SVG chart")
    p_sweep.add_argument("--plot-r2", metavar="PATH", help="write an R²-vs-k SVG chart")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="print the metric report for one k as JSON")
    p_eval.add_argument("--data", required=True, metavar="PATH", help="input CSV")
    p_eval.add_argument("--target", required=True, metavar="NAME", help="target column name")
    _add_model_flags(p_eval)
    p_eval.add_argument("--k", type=int, required=True, metavar="INT", help="neighbor count")
    _add_split_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="predict targets for a query CSV")
    p_pred.add_argument("--train", required=True, metavar="PATH", help="training CSV")
    p_pred.add_argument("--query", required=True, metavar="PATH",
                        help="query CSV with the feature columns only")
    p_pred.add_argument("--target", required=True, metavar="NAME", help="target column name")
    p_pred.add_argument("--k", type=int, required=True, metavar="INT", help="neighbor count")
    _add_model_flags(p_pred)
    p_pred.add_argument("--out", required=True, metavar="PATH",
                        help="where to write the row_index,prediction CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_dens = sub.add_parser("density", help="estimate local density at query points")
    p_dens.add_argument("--train", required=True, metavar="PATH",
                        help="training CSV (feature columns only, no target)")
    p_dens.add_argument("--query", required=True, metavar="PATH",
                        help="query CSV with the same feature columns")
    p_dens.add_argument("--k", type=int, required=True, metavar="INT", help="neighbor count")
    p_dens.add_argument("--metric", choices=sorted(_METRICS), default="euclidean",
                        help="must be euclidean (density volumes are euclidean balls)")
    p_dens.add_argument("--out", required=True, metavar="PATH",
                        help="where to write the row_index,density CSV")
    p_dens.set_defaults(func=cmd_density)

    return parser


def _model_options(args) -> dict:
    """The model flags as keyword arguments; fit and SweepConfig take the same names."""
    return dict(metric=_METRICS[args.metric], weighting=_WEIGHTINGS[args.weighting],
                backend=_BACKENDS[args.backend], standardize=not args.no_standardize)


def _sweep_config(args, k_min: int, k_max: int) -> SweepConfig:
    return SweepConfig(k_min=k_min, k_max=k_max,
                       split=SplitSpec(train_fraction=args.split, seed=args.seed),
                       **_model_options(args))


def _write_values(path, name: str, values) -> None:
    """Write one value per query row as a row_index,<name> CSV, 17 significant digits."""
    rows = (f"{i},{v:.17g}\n" for i, v in enumerate(values.tolist()))
    Path(path).write_text(f"row_index,{name}\n" + "".join(rows), encoding="utf-8")


def cmd_sweep(args) -> int:
    data = load_csv(args.data, args.target, args.categorical)
    result = run_sweep(data, _sweep_config(args, args.k_min, args.k_max))
    emit_table(result, args.out_table)
    if args.plot_rmse:
        emit_chart(result, "rmse", args.plot_rmse, title="RMSE over k")
    if args.plot_r2:
        emit_chart(result, "r2", args.plot_r2, title="Goodness of fit over k")
    by_k = dict(result.rows)
    print(f"best_k_rmse={result.best_k_rmse} rmse={by_k[result.best_k_rmse].rmse:.12g}")
    if result.best_k_r2 is not None:
        print(f"best_k_r2={result.best_k_r2} "
              f"r_squared={by_k[result.best_k_r2].r_squared:.12g}")
    else:
        print("best_k_r2=undefined (constant test targets)")
    return 0


def cmd_eval(args) -> int:
    data = load_csv(args.data, args.target, args.categorical)
    result = run_sweep(data, _sweep_config(args, args.k, args.k))
    print(json.dumps(result.rows[0][1].as_dict()))
    return 0


def cmd_predict(args) -> int:
    train = load_csv(args.train, args.target, args.categorical)
    model = fit(train, k=args.k, **_model_options(args))
    queries = load_features_csv(args.query, args.categorical, train.codebooks)
    _write_values(args.out, "prediction", predict(model, queries))
    return 0


def cmd_density(args) -> int:
    if args.metric != "euclidean":
        raise ValueError("density estimation supports the euclidean metric only")
    train = load_features_csv(args.train)
    model = fit(train, k=args.k, metric=DistanceMetric.EUCLIDEAN)
    queries = load_features_csv(args.query)
    _write_values(args.out, "density", estimate_densities(model, queries))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
