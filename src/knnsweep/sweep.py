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
    sign = -1.0 if criterion == "r2" else 1.0
    scores = [(sign * v, k) for k, v in _points(rows, criterion, "criterion")]
    return min(scores)[1] if scores else None


def _points(rows, criterion: str, what: str) -> list[tuple[int, float]]:
    """(k, value) for every row where ``criterion`` ('rmse' or 'r2') is defined."""
    if criterion == "rmse":
        return [(k, rep.rmse) for k, rep in rows]
    if criterion == "r2":
        return [(k, rep.r_squared) for k, rep in rows if rep.r_squared is not None]
    raise ValueError(f"unknown {what} {criterion!r}; use 'rmse' or 'r2'")


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


def _line(x1, y1, x2, y2) -> str:
    """One black 1-px SVG line between points formatted by the caller."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#000000" stroke-width="1"/>')


def _text(x, y, anchor, size, body, extra="") -> str:
    """One sans-serif SVG text element; ``extra`` is further attributes, each after a space."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}"{extra}>{body}</text>')


def emit_chart(result: SweepResult, metric: str, path, title: str) -> None:
    """Write a standalone SVG line chart of the metric versus k.

    x axis: k; y axis: metric value; a marker highlights the best k.
    Identical inputs produce byte-identical files.
    """
    points = _points(result.rows, metric, "chart metric")
    y_label = "RMSE" if metric == "rmse" else "R-squared"
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
        _text(f"{CHART_WIDTH / 2:.1f}", 24, "middle", 16,
              title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")),
    ]
    axis_y = top + plot_h
    parts.append(_line(f"{left:.1f}", f"{axis_y:.1f}", f"{left + plot_w:.1f}", f"{axis_y:.1f}"))
    parts.append(_line(f"{left:.1f}", f"{top:.1f}", f"{left:.1f}", f"{axis_y:.1f}"))
    step = max(1, math.ceil((int(x_hi) - int(x_lo)) / 7)) if x_hi > x_lo else 1
    x_ticks = list(range(int(x_lo), int(x_hi) + 1, step))
    if x_ticks[-1] != int(x_hi):
        x_ticks.append(int(x_hi))
    for t in x_ticks:
        x = f"{px(float(t)):.3f}"
        parts.append(_line(x, f"{axis_y:.1f}", x, f"{axis_y + 5:.1f}"))
        parts.append(_text(x, f"{axis_y + 20:.1f}", "middle", 12, t))
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4.0
        y = py(v)
        parts.append(_line(f"{left - 5:.1f}", f"{y:.3f}", f"{left:.1f}", f"{y:.3f}"))
        parts.append(_text(f"{left - 9:.1f}", f"{y + 4:.3f}", "end", 12, f"{v:.6g}"))
    mid_y = f"{top + plot_h / 2:.1f}"
    parts.append(_text(f"{left + plot_w / 2:.1f}", CHART_HEIGHT - 8, "middle", 14, "k"))
    parts.append(_text(18, mid_y, "middle", 14, y_label, f' transform="rotate(-90 18 {mid_y})"'))
    vertices = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in points)
    parts.append(
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{vertices}"/>'
    )
    best_x, best_py = px(float(best_k)), py(best_y)
    parts.append(f'<circle cx="{best_x:.3f}" cy="{best_py:.3f}" r="4" fill="#d62728"/>')
    parts.append(_text(f"{best_x:.3f}", f"{best_py - 8:.3f}", "middle", 12, f"k={best_k}",
                       ' fill="#d62728"'))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
