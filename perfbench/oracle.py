"""Independent expected outputs for the benchmark's CLI jobs.

Nothing here imports knnsweep. The oracle re-derives every output byte
from the generated arrays and the contracts the CLI documents:

* neighbors by a blocked brute-force scan over all (query, row) pairs,
  ordered by (distance, row index) -- for the kd-tree workloads this is
  the brute-force-versus-kd-tree cross-check;
* sums accumulated left to right, one IEEE operation per step;
* the split's seeded Fisher-Yates shuffle and population z-scoring;
* the table, chart and prediction/density formats as they stand at the
  commit that defined this benchmark.

The expected bytes therefore do not depend on the code under test, so an
optimisation that changes any output byte is caught on every seed.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

# Upper bound on one (queries x rows) distance block, in float64 elements.
_BLOCK_ELEMS = 2_000_000


def knn(points: np.ndarray, queries: np.ndarray, k: int):
    """(indices, squared distances) of the k nearest rows of every query.

    Squared distances accumulate coordinate by coordinate, as the program
    does, and ties on distance go to the lower row index.
    """
    n, d = points.shape
    m = queries.shape[0]
    cols = [np.ascontiguousarray(points[:, j]) for j in range(d)]
    indices = np.empty((m, k), dtype=np.int64)
    squared = np.empty((m, k), dtype=np.float64)
    block = max(1, _BLOCK_ELEMS // n)
    for start in range(0, m, block):
        qb = queries[start:start + block]
        acc = np.zeros((qb.shape[0], n), dtype=np.float64)
        for j in range(d):
            diff = cols[j][None, :] - qb[:, j][:, None]
            acc += diff * diff
        kth = np.partition(acc, k - 1, axis=1)[:, k - 1]
        for r in range(qb.shape[0]):
            cand = np.flatnonzero(acc[r] <= kth[r])
            order = cand[np.argsort(acc[r, cand], kind="stable")[:k]]
            indices[start + r] = order
            squared[start + r] = acc[r, order]
    return indices, squared


def _zscore(train: np.ndarray, *others: np.ndarray):
    """Population z-scores fitted on ``train`` and applied to every array."""
    out = [a.copy() for a in (train, *others)]
    for j in range(train.shape[1]):
        col = train[:, j]
        mean = np.float64(np.mean(col))
        sd = np.float64(np.std(col))
        for a in out:
            a[:, j] = 0.0 if sd == 0.0 else (a[:, j] - mean) / sd
    return out


def _lsum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _split_perm(n: int, seed: int) -> list[int]:
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _fmt12(x: float) -> str:
    return "0.000000000000" if x == 0.0 else f"{x:.12g}"


def expected_sweep(x, y, k_max=76, train_fraction=0.8, split_seed=42):
    """stdout, table and both charts of ``knn-sweep sweep`` with default flags."""
    n = len(y)
    n_train = int(n * train_fraction)
    perm = _split_perm(n, split_seed)
    tr, te = perm[:n_train], perm[n_train:]
    xtr, xte = _zscore(x[tr], x[te])
    ytr, yte = y[tr], y[te]
    idx, _ = knn(xtr, xte, k_max)
    cums = np.add.accumulate(ytr[idx], axis=1)  # left-to-right prefix sums
    ks = np.arange(1, k_max + 1)
    preds = cums / ks  # column k-1 is the uniform mean of the first k targets
    resid = yte[:, None] - preds
    sse = np.add.accumulate(resid * resid, axis=0)[-1]
    ylist = yte.tolist()
    m = len(ylist)
    ybar = _lsum(ylist) / m
    sst = _lsum((v - ybar) * (v - ybar) for v in ylist)
    dev = preds - ybar
    ssr = np.add.accumulate(dev * dev, axis=0)[-1]

    rows = []
    for c, k in enumerate(ks.tolist()):
        sse_k = float(sse[c])
        mse_k = sse_k / m
        rows.append({
            "k": k, "sse": sse_k, "mse": mse_k, "rmse": math.sqrt(mse_k),
            "r2": None if sst == 0.0 else 1.0 - sse_k / sst,
            "ssr": float(ssr[c]), "sst": sst,
        })
    best_rmse = _best(rows, "rmse")
    best_r2 = _best(rows, "r2")
    by_k = {r["k"]: r for r in rows}
    stdout = f"best_k_rmse={best_rmse} rmse={by_k[best_rmse]['rmse']:.12g}\n"
    if best_r2 is None:
        stdout += "best_k_r2=undefined (constant test targets)\n"
    else:
        stdout += f"best_k_r2={best_r2} r_squared={by_k[best_r2]['r2']:.12g}\n"

    table = ["k,rmse,r_squared,sse,mse,ssr,sst"]
    for r in rows:
        r2 = "" if r["r2"] is None else _fmt12(r["r2"])
        table.append(f"{r['k']},{_fmt12(r['rmse'])},{r2},{_fmt12(r['sse'])},"
                     f"{_fmt12(r['mse'])},{_fmt12(r['ssr'])},{_fmt12(r['sst'])}")
    return {
        "stdout": stdout.encode(),
        "table": ("\n".join(table) + "\n").encode(),
        "rmse_svg": _chart(rows, "rmse", best_rmse, "RMSE over k"),
        "r2_svg": _chart(rows, "r2", best_r2, "Goodness of fit over k"),
    }


def _best(rows, key):
    """Smallest k with minimal RMSE or maximal defined R²."""
    best_k, best_v = None, None
    for r in rows:
        v = r[key]
        if v is None:
            continue
        if best_v is None or (v < best_v if key == "rmse" else v > best_v):
            best_k, best_v = r["k"], v
    return best_k


def _chart(rows, key, best_k, title) -> bytes:
    """The 800x500 SVG line chart with a marker on the best k."""
    width, height = 800, 500
    points = [(r["k"], r[key]) for r in rows if r[key] is not None]
    y_label = "RMSE" if key == "rmse" else "R-squared"
    best_y = dict(points)[best_k]
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [float(k) for k, _ in points]
    ys = [v for _, v in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = y_hi - y_lo
    pad = 0.05 * span if span > 0.0 else 0.5
    y_lo -= pad
    y_hi += pad

    def px(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    axis_y = top + plot_h
    black = 'stroke="#000000" stroke-width="1"/>'
    parts = [
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        f'<line x1="{left:.1f}" y1="{axis_y:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{axis_y:.1f}" {black}',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{axis_y:.1f}" {black}',
    ]
    step = max(1, math.ceil((int(x_hi) - int(x_lo)) / 7)) if x_hi > x_lo else 1
    ticks = list(range(int(x_lo), int(x_hi) + 1, step))
    if ticks[-1] != int(x_hi):
        ticks.append(int(x_hi))
    for t in ticks:
        x = px(float(t))
        parts.append(f'<line x1="{x:.3f}" y1="{axis_y:.1f}" x2="{x:.3f}" '
                     f'y2="{axis_y + 5:.1f}" {black}')
        parts.append(f'<text x="{x:.3f}" y="{axis_y + 20:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t}</text>')
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4.0
        y = py(v)
        parts.append(f'<line x1="{left - 5:.1f}" y1="{y:.3f}" x2="{left:.1f}" '
                     f'y2="{y:.3f}" {black}')
        parts.append(f'<text x="{left - 9:.1f}" y="{y + 4:.3f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{v:.6g}</text>')
    mid_y = top + plot_h / 2
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">k</text>')
    parts.append(f'<text x="18" y="{mid_y:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 18 {mid_y:.1f})">{y_label}</text>')
    vertices = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in points)
    parts.append(f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
                 f'points="{vertices}"/>')
    bx, by = px(float(best_k)), py(best_y)
    parts.append(f'<circle cx="{bx:.3f}" cy="{by:.3f}" r="4" fill="#d62728"/>')
    parts.append(f'<text x="{bx:.3f}" y="{by - 8:.3f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" fill="#d62728">k={best_k}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def expected_predict(x, y, q, k):
    """Output file of ``predict --backend brute --weighting inverse``, and the
    share of queries whose nearest neighbor is at distance exactly 0."""
    xs, qs = _zscore(x, q)
    idx, squared = knn(xs, qs, k)
    dists = np.sqrt(squared)
    lines = ["row_index,prediction"]
    for i, (rows, ds) in enumerate(zip(idx.tolist(), dists.tolist())):
        targets = y[rows].tolist()
        exact = [t for t, d in zip(targets, ds) if d == 0.0]
        if exact:
            p = _lsum(exact) / len(exact)
        else:
            num = den = 0.0
            for t, d in zip(targets, ds):
                w = 1.0 / d
                num += w * t
                den += w
            p = num / den
        lines.append(f"{i},{p:.17g}")
    share = float(np.mean(squared[:, 0] == 0.0))
    return {"stdout": b"", "predictions": ("\n".join(lines) + "\n").encode()}, share


def expected_density(x, q, k):
    """Output file of ``density``, and the share of zero-radius (inf) queries."""
    n, dim = x.shape
    _, squared = knn(x, q, k)
    radii = np.sqrt(squared[:, k - 1]).tolist()
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    lines = ["row_index,density"]
    for i, r in enumerate(radii):
        if r == 0.0:
            lines.append(f"{i},inf")
        else:
            lines.append(f"{i},{k / (n * (unit_ball * r**dim)):.17g}")
    share = sum(r == 0.0 for r in radii) / len(radii)
    return {"stdout": b"", "density": ("\n".join(lines) + "\n").encode()}, share
