"""Regression evaluation metrics: SSE, MSE, RMSE and R² with SSR/SST.

R² uses the residual form 1 - SSE/SST, so a perfect fit scores 1 and the
constant-mean predictor scores 0; out-of-sample values may be negative.
SSR (explained sum of squares about the truth mean) is computed and
exposed alongside, for inspection. All sums run left-to-right for
bit-determinism.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


class UndefinedRSquaredError(ValueError):
    """SST is zero (constant truth vector), so R² is undefined."""


@dataclass(frozen=True)
class MetricReport:
    """All metrics for one prediction vector against truth.

    ``r_squared`` is None when the truth vector is constant (SST = 0).
    """

    n: int
    sse: float
    mse: float
    rmse: float
    r_squared: float | None
    ssr: float
    sst: float

    def as_dict(self) -> dict:
        """JSON-ready mapping in field order; undefined R² serializes as null."""
        return asdict(self)


def _as_list(v, name: str) -> list[float]:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr.tolist()


def _check_pair(y, yhat) -> tuple[list[float], list[float]]:
    ylist = _as_list(y, "y")
    yhatlist = _as_list(yhat, "yhat")
    if len(ylist) != len(yhatlist):
        raise ValueError(f"length mismatch: {len(ylist)} vs {len(yhatlist)}")
    if not ylist:
        raise ValueError("metrics are undefined for empty vectors")
    return ylist, yhatlist


def _sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def sse(y, yhat) -> float:
    """Sum of squared residuals."""
    ylist, yhatlist = _check_pair(y, yhat)
    return _sum((a - b) * (a - b) for a, b in zip(ylist, yhatlist))


def mse(y, yhat) -> float:
    """Mean of squared residuals, sse / n."""
    ylist, yhatlist = _check_pair(y, yhat)
    return sse(ylist, yhatlist) / len(ylist)


def rmse(y, yhat) -> float:
    """Square root of the mean squared residual."""
    return math.sqrt(mse(y, yhat))


def ssr(yhat, ybar: float) -> float:
    """Explained sum of squares: sum of (prediction - ybar)²."""
    yhatlist = _as_list(yhat, "yhat")
    if not yhatlist:
        raise ValueError("ssr is undefined for an empty vector")
    return _sum((v - ybar) * (v - ybar) for v in yhatlist)


def sst(y, ybar: float) -> float:
    """Total sum of squares: sum of (truth - ybar)²."""
    ylist = _as_list(y, "y")
    if not ylist:
        raise ValueError("sst is undefined for an empty vector")
    return _sum((v - ybar) * (v - ybar) for v in ylist)


def r_squared(y, yhat) -> float:
    """1 - SSE/SST; at most 1, possibly negative out of sample.

    Raises :class:`UndefinedRSquaredError` when the truth vector is
    constant (SST = 0).
    """
    ylist, yhatlist = _check_pair(y, yhat)
    ybar = _sum(ylist) / len(ylist)
    total = sst(ylist, ybar)
    if total == 0.0:
        raise UndefinedRSquaredError(
            "SST is zero (constant truth vector); R² is undefined"
        )
    return 1.0 - sse(ylist, yhatlist) / total


def report(y, yhat) -> MetricReport:
    """Compute every metric once, consistently with the scalar operations."""
    ylist, yhatlist = _check_pair(y, yhat)
    n = len(ylist)
    ybar = _sum(ylist) / n
    return _from_sums(n, sse(ylist, yhatlist), ssr(yhatlist, ybar), sst(ylist, ybar))


def _from_sums(n: int, sse_v: float, ssr_v: float, sst_v: float) -> MetricReport:
    """The report for n rows with the given sums of squares."""
    mse_v = sse_v / n
    return MetricReport(
        n=n,
        sse=sse_v,
        mse=mse_v,
        rmse=math.sqrt(mse_v),
        r_squared=None if sst_v == 0.0 else 1.0 - sse_v / sst_v,
        ssr=ssr_v,
        sst=sst_v,
    )


def report_columns(y, yhat) -> list[MetricReport]:
    """``report(y, yhat[:, j])`` for every column j of an (n, K) matrix.

    Each report equals the scalar one bit for bit: the sums over rows run
    left to right as running sums down the columns (np.sum may add
    pairwise). Squares are never -0.0, so starting from the first row
    instead of _sum's 0.0 changes nothing.
    """
    ylist = _as_list(y, "y")
    preds = np.asarray(yhat, dtype=np.float64)
    if preds.ndim != 2:
        raise ValueError("yhat must be a 2-D matrix")
    if not np.isfinite(preds).all():
        raise ValueError("yhat contains NaN or infinite values")
    if len(ylist) != preds.shape[0]:
        raise ValueError(f"length mismatch: {len(ylist)} vs {preds.shape[0]}")
    if not ylist:
        raise ValueError("metrics are undefined for empty vectors")
    n = len(ylist)
    ybar = _sum(ylist) / n
    sst_v = sst(ylist, ybar)
    resid = np.asarray(ylist)[:, None] - preds
    sse_cols = np.add.accumulate(resid * resid, axis=0)[-1].tolist()
    dev = preds - ybar
    ssr_cols = np.add.accumulate(dev * dev, axis=0)[-1].tolist()
    return [_from_sums(n, sse_v, ssr_v, sst_v) for sse_v, ssr_v in zip(sse_cols, ssr_cols)]
