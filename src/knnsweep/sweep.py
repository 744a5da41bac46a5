"""The core experiment: evaluate the regressor for every k in a range.

run_sweep splits once, fits one KnnModel at k_max and reads every k off
its prefix predictions: a single index query returns the k_max nearest
training rows of every test row, and the prediction at each k is taken
from a prefix of these (distance, index)-ordered neighbor lists, which is
exactly what a per-k refit would return. Every k is evaluated in one
pass, with no per-k loop: running sums along the neighbor lists give all
the predictions (regressor.predict_prefixes) and running sums down the
test rows give all the metrics (metrics.report_columns). Both add left to
right like the scalar code, so each row equals a per-k refit bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

from .dataset import Dataset, SplitSpec, split
from .distance import DistanceMetric
from .metrics import MetricReport, report_columns
from .neighbors import SearchBackend
from .regressor import WeightingMode, fit, prefix_predictions

CHART_WIDTH = 800
CHART_HEIGHT = 500
TABLE_HEADER = "k,rmse,r_squared,sse,mse,ssr,sst"


@dataclass(frozen=True)
class SweepConfig:
    k_min: int = 1
    k_max: int = 76
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN
    weighting: WeightingMode = WeightingMode.UNIFORM
    backend: SearchBackend = SearchBackend.KD_TREE
    split: SplitSpec = field(default_factory=SplitSpec)
    standardize: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= k_max, got k_min={self.k_min}, k_max={self.k_max}"
            )


@dataclass(frozen=True)
class SweepResult:
    """Per-k reports in ascending k, plus the selected optima.

    ``best_k_r2`` is None when R² is undefined for every k (constant test
    targets); ties on either criterion resolve to the smallest k.
    """

    rows: tuple[tuple[int, MetricReport], ...]
    best_k_rmse: int
    best_k_r2: int | None


def run_sweep(data: Dataset, config: SweepConfig) -> SweepResult:
    """Split once, fit once at k_max, then evaluate every k in [k_min, k_max]."""
    train, test = split(data, config.split)
    if config.k_max > train.n_rows:
        raise ValueError(
            f"k_max={config.k_max} exceeds the {train.n_rows} training rows "
            f"left by the split"
        )
    model = fit(train, config.k_max, config.metric, config.weighting, config.backend,
                config.standardize)
    preds = prefix_predictions(model, test)
    reports = report_columns(test.target, preds[:, config.k_min - 1:])
    rows = tuple(zip(range(config.k_min, config.k_max + 1), reports))
    return SweepResult(rows=rows, best_k_rmse=_best_k(rows, "rmse"),
                       best_k_r2=_best_k(rows, "r2"))


def select_best(result: SweepResult, criterion: str) -> int:
    """argmin RMSE or argmax R² over the sweep rows, smallest k on ties."""
    if not result.rows:
        raise ValueError("empty sweep result")
    best = _best_k(result.rows, criterion)
    if best is None:
        raise ValueError("R² is undefined for every k (constant test targets)")
    return best


def _best_k(rows, criterion: str) -> int | None:
    """select_best over ascending-k rows; None when no row defines R²."""
    if criterion == "rmse":
        scores = [(rep.rmse, k) for k, rep in rows]
    elif criterion == "r2":
        scores = [(-rep.r_squared, k) for k, rep in rows if rep.r_squared is not None]
    else:
        raise ValueError(f"unknown criterion {criterion!r}; use 'rmse' or 'r2'")
    return min(scores)[1] if scores else None


def _fmt(x: float) -> str:
    # 12 significant digits; exact zero keeps the fixed all-zero rendering.
    if x == 0.0:
        return "0.000000000000"
    return f"{x:.12g}"


def emit_table(result: SweepResult, path) -> None:
    """Write the sweep as CSV, one row per k; undefined R² is an empty field."""
    lines = [TABLE_HEADER]
    for k, rep in result.rows:
        r2 = "" if rep.r_squared is None else _fmt(rep.r_squared)
        lines.append(
            f"{k},{_fmt(rep.rmse)},{r2},{_fmt(rep.sse)},"
            f"{_fmt(rep.mse)},{_fmt(rep.ssr)},{_fmt(rep.sst)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_chart(result: SweepResult, metric: str, path, title: str) -> None:
    """Write a standalone SVG line chart of the metric versus k.

    x axis: k; y axis: metric value; a marker highlights the best k.
    Identical inputs produce byte-identical files.
    """
    if metric == "rmse":
        points = [(k, rep.rmse) for k, rep in result.rows]
        y_label = "RMSE"
    elif metric == "r2":
        points = [(k, rep.r_squared) for k, rep in result.rows if rep.r_squared is not None]
        y_label = "R-squared"
    else:
        raise ValueError(f"unknown chart metric {metric!r}; use 'rmse' or 'r2'")
    if len(points) < 2:
        raise ValueError(f"chart needs at least 2 defined points, have {len(points)}")
    best_k = select_best(result, metric)
    best_y = dict(points)[best_k]

    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = CHART_WIDTH - left - right
    plot_h = CHART_HEIGHT - top - bottom
    xs = [float(k) for k, _ in points]
    ys = [v for _, v in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = y_hi - y_lo
    pad = 0.05 * span if span > 0.0 else 0.5
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CHART_WIDTH}" height="{CHART_HEIGHT}" '
        f'viewBox="0 0 {CHART_WIDTH} {CHART_HEIGHT}">',
        f'<rect x="0" y="0" width="{CHART_WIDTH}" height="{CHART_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{CHART_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    axis_y = top + plot_h
    parts.append(
        f'<line x1="{left:.1f}" y1="{axis_y:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{axis_y:.1f}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{axis_y:.1f}" stroke="#000000" stroke-width="1"/>'
    )
    step = max(1, math.ceil((int(x_hi) - int(x_lo)) / 7)) if x_hi > x_lo else 1
    x_ticks = list(range(int(x_lo), int(x_hi) + 1, step))
    if x_ticks[-1] != int(x_hi):
        x_ticks.append(int(x_hi))
    for t in x_ticks:
        x = px(float(t))
        parts.append(
            f'<line x1="{x:.3f}" y1="{axis_y:.1f}" x2="{x:.3f}" '
            f'y2="{axis_y + 5:.1f}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.3f}" y="{axis_y + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t}</text>'
        )
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4.0
        y = py(v)
        parts.append(
            f'<line x1="{left - 5:.1f}" y1="{y:.3f}" x2="{left:.1f}" '
            f'y2="{y:.3f}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 9:.1f}" y="{y + 4:.3f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.6g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{CHART_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">k</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>'
    )
    vertices = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in points)
    parts.append(
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{vertices}"/>'
    )
    parts.append(
        f'<circle cx="{px(float(best_k)):.3f}" cy="{py(best_y):.3f}" r="4" fill="#d62728"/>'
    )
    parts.append(
        f'<text x="{px(float(best_k)):.3f}" y="{py(best_y) - 8:.3f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'fill="#d62728">k={best_k}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
