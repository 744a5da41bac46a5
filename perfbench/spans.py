"""Spans around the calls into knnsweep's layers, taken from outside.

The tracer replaces module attributes (and the index classes' ``query``
method) with timing wrappers and restores them afterwards, so no source
file of the program changes. A span is (id, name, thread, start, end,
parent, note), where ``note`` is a count taken at the boundary, such as the
rows a query call carried. Spans stay in memory until the job is analysed.

Self time is attributed on one timeline: at every instant the job's wall
time is charged to the innermost open span of each worker thread that has
one, split evenly between them, and otherwise to the innermost open span
of the thread running ``cli.main``. The self times of all spans therefore
add up to the duration of the ``cli.main`` span.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Layer functions the CLI path calls, by defining module. Every module of
# the package that imported one of them by name gets the wrapper too.
FUNCTIONS = {
    "dataset": ("load_csv", "load_features_csv", "split", "fit_standardizer",
                "apply_standardizer"),
    "neighbors": ("build_index",),
    "regressor": ("fit", "predict", "predict_from_neighbors", "estimate_density"),
    "metrics": ("report",),
    "sweep": ("run_sweep", "emit_table", "emit_chart"),
}
# Index classes whose ``query`` method becomes span "neighbors.query".
QUERY_CLASSES = ("BruteForceIndex", "KdTreeIndex")
PACKAGE = "knnsweep"
MODULES = ("dataset", "neighbors", "regressor", "metrics", "sweep", "cli")


# Boundary counts, one per call: (positional args, result, raised exception).
def _cells_with_target(args, result, exc):
    return 0 if result is None else result.n_rows * (result.n_columns + 1)


def _cells(args, result, exc):
    return 0 if result is None else result.n_rows * result.n_columns


def _query_rows(args, result, exc):
    return 1 if np.ndim(args[1]) == 1 else len(args[1])


def _exact_match(args, result, exc):
    return int(exc is None and 0.0 in args[1])


def _zero_radius(args, result, exc):
    return int(type(exc).__name__ == "ZeroRadiusError")


NOTES = {
    "dataset.load_csv": _cells_with_target,
    "dataset.load_features_csv": _cells,
    "neighbors.query": _query_rows,
    "regressor.predict_from_neighbors": _exact_match,
    "regressor.estimate_density": _zero_radius,
}


class Tracer:
    """Records spans for the calls made into the package while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._undo: list = []

    def _wrap(self, name, fn):
        # list.append and next(count) are atomic, so worker threads need no lock.
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main
        clock, ident, note = time.perf_counter_ns, threading.get_ident, NOTES.get(name)

        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:  # a worker thread's outermost call, caused by main's open span
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, tid, start, end, parent,
                              note(args, None, exc) if note else 0))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, tid, start, end, parent,
                          note(args, result, None) if note else 0))
            return result

        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span called ``name``."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every layer function and the index ``query`` methods."""
        prefix = PACKAGE + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(prefix))]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[prefix + mod_name]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, value))
                            setattr(m, attr, wrapper)
        neighbors = sys.modules[prefix + "neighbors"]
        for cls_name in QUERY_CLASSES:
            cls = getattr(neighbors, cls_name, None)
            if cls is None:
                continue
            self._undo.append((cls, "query", cls.__dict__.get("query")))
            cls.query = self._wrap("neighbors.query", cls.query)

    def uninstall(self) -> None:
        """Put back every attribute install() replaced."""
        for owner, attr, value in reversed(self._undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self) -> dict[int, float]:
        """Seconds of wall time charged to each span id (see module docstring)."""
        by_thread = defaultdict(list)
        for span in self.spans:
            by_thread[span[2]].append(span)
        events = []  # (time, kind, thread, span id); kind 0 ends a segment first
        for tid, spans in by_thread.items():
            for seg_start, seg_end, sid in _innermost_segments(spans):
                if seg_end > seg_start:
                    events.append((seg_start, 1, tid, sid))
                    events.append((seg_end, 0, tid, sid))
        events.sort()
        charged: dict[int, float] = defaultdict(float)
        active: dict[int, int] = {}
        prev = 0
        for t, kind, tid, sid in events:
            if t > prev:
                owners = [s for th, s in active.items() if th != self._main]
                if not owners and self._main in active:
                    owners = [active[self._main]]
                for s in owners:
                    charged[s] += (t - prev) / 1e9 / len(owners)
            if kind == 1:
                active[tid] = sid
            elif active.get(tid) == sid:
                del active[tid]
            prev = t
        return charged

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one job)."""
        charged = self.self_times()
        inclusive = defaultdict(float)
        for sid, _, _, _, _, parent, _ in sorted(self.spans, reverse=True):
            inclusive[sid] += charged.get(sid, 0.0)  # children have larger ids
            if parent is not None:
                inclusive[parent] += inclusive[sid]
        incl, self_s, calls, notes = (defaultdict(float), defaultdict(float),
                                      defaultdict(int), defaultdict(int))
        for sid, name, _, _, _, _, note in self.spans:
            incl[name] += inclusive[sid]
            self_s[name] += charged.get(sid, 0.0)
            calls[name] += 1
            notes[name] += note
        query_us = sorted((s[4] - s[3]) / 1e3 for s in self.spans if s[1] == "neighbors.query")
        combine, density = "regressor.predict_from_neighbors", "regressor.estimate_density"
        out = {
            "dataset.load_csv.s": incl["dataset.load_csv"],
            "dataset.load_features_csv.s": incl["dataset.load_features_csv"],
            "dataset.cells_parsed": notes["dataset.load_csv"] + notes["dataset.load_features_csv"],
            "dataset.split.s": incl["dataset.split"],
            "dataset.standardize.s": (incl["dataset.fit_standardizer"]
                                      + incl["dataset.apply_standardizer"]),
            "neighbors.build_index.s": incl["neighbors.build_index"],
            "neighbors.query.s": incl["neighbors.query"],
            "neighbors.query.calls": calls["neighbors.query"],
            "neighbors.query.rows": notes["neighbors.query"],
            "neighbors.query.p50_us": _quantile(query_us, 0.50),
            "neighbors.query.p99_us": _quantile(query_us, 0.99),
            "regressor.predict.s": incl["regressor.predict"],
            "regressor.predict_from_neighbors.s": incl[combine],
            "regressor.predict_from_neighbors.calls": calls[combine],
            "regressor.exact_match_share": notes[combine] / calls[combine] if calls[combine] else 0.0,
            "regressor.estimate_density.s": incl[density],
            "regressor.zero_radius_share": notes[density] / calls[density] if calls[density] else 0.0,
            "metrics.report.s": incl["metrics.report"],
            "metrics.report.calls": calls["metrics.report"],
            "sweep.run_sweep.self_s": self_s["sweep.run_sweep"],
            "sweep.emit_table.s": incl["sweep.emit_table"],
            "sweep.emit_chart.s": incl["sweep.emit_chart"],
            "cli.main.s": incl["cli.main"],
        }
        for module in MODULES:
            out[f"{module}.self_s"] = sum((v for name, v in self_s.items()
                                           if name.split(".", 1)[0] == module), 0.0)
        return out


def _innermost_segments(spans):
    """Cut one thread's nested spans into (start, end, innermost span id)."""
    segments = []
    stack = []  # (span id, end) of the open spans
    cursor = 0
    for sid, _, _, start, end, _, _ in sorted(spans, key=lambda s: (s[3], -s[4], s[0])):
        while stack and stack[-1][1] <= start:
            top, top_end = stack.pop()
            segments.append((cursor, top_end, top))
            cursor = top_end
        if stack:
            segments.append((cursor, start, stack[-1][0]))
        stack.append((sid, end))
        cursor = start
    while stack:
        top, top_end = stack.pop()
        segments.append((cursor, top_end, top))
        cursor = top_end
    return segments


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, int(np.ceil(q * len(sorted_values)))))
    return float(sorted_values[rank - 1])
