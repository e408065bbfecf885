"""Spans around imvc's public functions, installed from outside the package.

The benchmark replaces module globals and class attributes of `imvc` with
wrappers. Every call through a wrapper appends one span: name, start, end,
parent span and optional counters read from the arguments or the result.
Spans stay in memory until the run writes them out; the per-layer metrics
are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Percentiles a timing may be reported at; the highest one used is the
# highest with at least MIN_BEYOND samples above it.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, meter=None, before=None):
        """Replace `owner.attr` by a recording wrapper.

        `before(args, kwargs)` runs ahead of the call, outside the span;
        `meter(args, kwargs, result, pre)` runs after it and returns the
        span's counters. Neither is timed as part of the span.
        """
        original = owner.__dict__[attr]
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if meter is not None:
                span.info = meter(args, kwargs, result, pre)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "info": s.info}) + "\n")


# ---------------------------------------------------------------------------
# helpers (unit-tested in test_helpers.py)

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, intervals in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(intervals):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def reportable_percentile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        per_mille_beyond = 1000 - round(10 * p)     # exact for tenths of a %
        if n_samples * per_mille_beyond >= 1000 * MIN_BEYOND:
            best = p
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_over_time(durations) -> float:
    """The duration at which half the measured time is spent in shorter calls.

    Unlike the median over calls, it does not count a burst of fast calls,
    which a closed loop makes many of, more than the time the burst lasted.
    """
    ordered = sorted(durations)
    half, covered = sum(ordered) / 2.0, 0.0
    for d in ordered:
        covered += d
        if covered >= half:
            return d
    raise ValueError("median_over_time of no durations")


def partition_changed(before, after) -> bool:
    """True unless `after` is `before` up to a renumbering of the labels."""
    from imvc.metrics import clustering_accuracy
    return clustering_accuracy(after, before) < 1.0


def useful_cycle_ratio(changed_flags: list[bool]) -> float:
    """Share of joint cycles whose partition differs from the previous one."""
    if not changed_flags:
        return 0.0
    return sum(changed_flags) / len(changed_flags)


# ---------------------------------------------------------------------------
# installing the wrappers

def _rows(args, kwargs, result, pre):
    return {"rows": int(args[1].shape[0])}


def _autoencoder_flop(args, kwargs, result, pre):
    # forward, dW and dX matmuls: 3 GEMMs of 2*n*in*out flop per layer
    ae, X = args[0], args[1]
    weights = sum(layer.w.size for layer in (*ae.encoder, *ae.decoder))
    return {"flop": 6 * int(X.shape[0]) * int(weights)}


def _candidates(args, kwargs, result, pre):
    rows, features = args[0].shape
    return {"candidates": int(rows) * int(features)}


def _truth(args, kwargs, result, pre):
    return {"true": bool(result)}


def _file_bytes(args, kwargs, result, pre):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _dataset_bytes(args, kwargs, result, pre):
    manifest = Path(args[0])
    return {"bytes": sum(p.stat().st_size
                         for p in manifest.parent.glob("*.csv"))}


def _labels_before(args, kwargs):
    return args[0].labels.hard.copy()


def _cycle_changed(args, kwargs, result, pre):
    return {"changed": partition_changed(pre, args[0].labels.hard)}


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are read from.

    Calls inside imvc go through module globals or class attributes, so
    wrappers set here catch them. `imvc/__init__.py` rebinds `imvc.kmeans`
    to the function, so the module is reached through importlib, and the
    pipeline calls k-means under its own global name `run_kmeans`.
    """
    from imvc import data, dtree, nncore, pipeline, tao
    kmeans_mod = importlib.import_module("imvc.kmeans")

    wrap = tracer.wrap
    wrap(pipeline, "initialize", "pipeline.initialize")
    wrap(pipeline, "feature_phase", "pipeline.feature_phase")
    wrap(pipeline, "tree_phase", "pipeline.tree_phase",
         before=_labels_before, meter=_cycle_changed)
    wrap(pipeline, "run_kmeans", "kmeans.kmeans")
    wrap(pipeline, "explain", "pipeline.explain")
    wrap(nncore.Autoencoder, "loss_and_grads", "nncore.loss_and_grads",
         meter=_autoencoder_flop)
    wrap(nncore.Autoencoder, "forward", "nncore.forward")
    wrap(nncore, "adam_step", "nncore.adam_step")
    wrap(kmeans_mod, "lloyd", "kmeans.lloyd",
         meter=lambda a, k, result, p: {"iterations": result.iterations})
    wrap(kmeans_mod, "kmeanspp_init", "kmeans.kmeanspp_init")
    wrap(dtree, "build_tree", "dtree.build_tree")
    wrap(dtree, "best_split", "dtree.best_split", meter=_candidates)
    wrap(dtree.DecisionTree, "predict_batch", "dtree.predict_batch",
         meter=_rows)
    wrap(tao, "optimize_tree", "tao.optimize_tree")
    wrap(tao, "tao_pass", "tao.tao_pass", meter=_truth)
    wrap(tao, "optimize_node", "tao.optimize_node", meter=_truth)
    wrap(tao, "care_set", "tao.care_set",
         meter=lambda a, k, result, p: {"rows": len(result)})
    wrap(tao, "compute_reach", "tao.compute_reach")
    wrap(tao, "prune_and_reallocate", "tao.prune_and_reallocate")
    wrap(data, "save_model", "data.save_model", meter=_file_bytes)
    wrap(data, "load_model", "data.load_model", meter=_file_bytes)
    wrap(data, "load_dataset", "data.load_dataset", meter=_dataset_bytes)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit. Training-layer times and counts are per fit op; read-path
# ones (predict_batch, explain, load_model, load_dataset) are per read op,
# or medians per call where the name says ms or us. The comment names the
# end-to-end metric each should move, and on which workload.
PER_LAYER = {
    "nncore.epochs": "count",               # fit_s on fit-acceptance
    "nncore.loss_and_grads_s": "s",
    "nncore.adam_step_s": "s",
    "nncore.epoch_ms": "ms",
    "nncore.gflop_per_s": "GFLOP/s",        # computed from layer shapes
    "nncore.forward_s": "s",                # fit_s on fit-large
    "kmeans.calls": "count",                # fit_s on fit-large
    "kmeans.s": "s",
    "kmeans.lloyd_iters": "count",
    "kmeans.lloyd_ms_per_iter": "ms",
    "kmeans.init_s": "s",
    "dtree.build_tree_s": "s",              # fit_s on fit-large
    "dtree.best_split_calls": "count",
    "dtree.best_split_s": "s",
    "dtree.candidates": "count",
    "dtree.us_per_candidate": "us",
    "dtree.predict_batch_s": "s",           # predict_rows_per_s
    "dtree.predict_batch_rows": "count",
    "dtree.tree_nodes": "count",            # interpretability, beside acc
    "dtree.tree_depth": "count",
    "tao.optimize_tree_s": "s",             # fit_s, peak_rss_mb on fit-large
    "tao.passes": "count",
    "tao.useful_pass_ratio": "ratio",
    "tao.cap_hits": "count",
    "tao.optimize_node_calls": "count",
    "tao.optimize_node_s": "s",
    "tao.split_changes": "count",
    "tao.care_rows": "count",
    "tao.care_set_s": "s",
    "tao.compute_reach_s": "s",
    "tao.prune_s": "s",
    "pipeline.initialize_s": "s",           # fit_s
    "pipeline.feature_phase_s": "s",        # fit_s on fit-acceptance
    "pipeline.tree_phase_s": "s",           # fit_s on fit-large
    "pipeline.cycles_run": "count",         # fit_s on fit-acceptance
    "pipeline.useful_cycle_ratio": "ratio",
    "pipeline.explain_us_p50": "us",        # explain_per_s
    "pipeline.explain_us_p99": "us",
    "data.save_model_ms": "ms",             # fit op; not an end-to-end metric
    "data.load_model_ms": "ms",             # model_load_ms
    "data.model_bytes": "bytes",
    "data.load_dataset_s": "s",             # ingest_rows_per_s
    "data.ingest_mb_per_s": "MB/s",
    "trace.fit_op_s": "s",                  # traced fit op, for the overhead
    "trace.read_op_s": "s",                 # traced read op (median)
    "trace.fit_op_spans": "count",          # spans recorded in the fit op
}


class _Group:
    """The spans recorded inside the ops of one kind, by span name."""

    def __init__(self, spans: list[Span], ops: list[dict]):
        self.n_ops = len(ops)
        self.by_name: dict[str, list[tuple[int, Span]]] = {}
        for op in ops:
            for i in range(*op["spans"]):
                self.by_name.setdefault(spans[i].name, []).append((i, spans[i]))

    def calls(self, name) -> list[Span]:
        return [s for _, s in self.by_name.get(name, [])]

    def count(self, name) -> float:
        return len(self.calls(name)) / self.n_ops

    def seconds(self, name) -> float:
        return sum(s.duration for s in self.calls(name)) / self.n_ops

    def counter(self, name, key) -> float:
        return sum(s.info[key] for s in self.calls(name)) / self.n_ops

    def median_ms(self, name) -> float:
        d = [s.duration for s in self.calls(name)]
        return 1e3 * statistics.median(d) if d else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: list[dict], tree) -> dict[str, float]:
    """Per-layer metrics from the spans of a run's ops (see PER_LAYER)."""
    from imvc.tao import MAX_SELF_LABEL_ITERATIONS
    fit_ops = [op for op in ops if op["kind"] == "fit"]
    read_ops = [op for op in ops if op["kind"] == "read"]
    fit, read = _Group(spans, fit_ops), _Group(spans, read_ops)

    lag = [s.duration for s in fit.calls("nncore.loss_and_grads")]
    adam = [s.duration for s in fit.calls("nncore.adam_step")]
    epochs = [a + b for a, b in zip(lag, adam)]
    passes_in = Counter(s.parent for s in fit.calls("tao.tao_pass"))
    cap_hits = sum(1 for i, _ in fit.by_name.get("tao.optimize_tree", [])
                   if passes_in[i] >= MAX_SELF_LABEL_ITERATIONS)
    explain_us = [1e6 * s.duration for s in read.calls("pipeline.explain")]
    loads = read.calls("data.load_model")

    return {
        "nncore.epochs": fit.count("nncore.loss_and_grads"),
        "nncore.loss_and_grads_s": fit.seconds("nncore.loss_and_grads"),
        "nncore.adam_step_s": fit.seconds("nncore.adam_step"),
        "nncore.epoch_ms": 1e3 * statistics.median(epochs) if epochs else 0.0,
        "nncore.gflop_per_s": _ratio(fit.counter("nncore.loss_and_grads", "flop"),
                                     fit.seconds("nncore.loss_and_grads")) / 1e9,
        "nncore.forward_s": fit.seconds("nncore.forward"),
        "kmeans.calls": fit.count("kmeans.kmeans"),
        "kmeans.s": fit.seconds("kmeans.kmeans"),
        "kmeans.lloyd_iters": fit.counter("kmeans.lloyd", "iterations"),
        "kmeans.lloyd_ms_per_iter": 1e3 * _ratio(
            fit.seconds("kmeans.lloyd"), fit.counter("kmeans.lloyd", "iterations")),
        "kmeans.init_s": fit.seconds("kmeans.kmeanspp_init"),
        "dtree.build_tree_s": fit.seconds("dtree.build_tree"),
        "dtree.best_split_calls": fit.count("dtree.best_split"),
        "dtree.best_split_s": fit.seconds("dtree.best_split"),
        "dtree.candidates": fit.counter("dtree.best_split", "candidates"),
        "dtree.us_per_candidate": 1e6 * _ratio(
            fit.seconds("dtree.best_split"),
            fit.counter("dtree.best_split", "candidates")),
        "dtree.predict_batch_s": read.seconds("dtree.predict_batch"),
        "dtree.predict_batch_rows": read.counter("dtree.predict_batch", "rows"),
        "dtree.tree_nodes": tree.n_nodes,
        "dtree.tree_depth": tree.max_depth(),
        "tao.optimize_tree_s": fit.seconds("tao.optimize_tree"),
        "tao.passes": fit.count("tao.tao_pass"),
        "tao.useful_pass_ratio": _ratio(
            sum(s.info["true"] for s in fit.calls("tao.tao_pass")),
            len(fit.calls("tao.tao_pass"))),
        "tao.cap_hits": cap_hits / len(fit_ops),
        "tao.optimize_node_calls": fit.count("tao.optimize_node"),
        "tao.optimize_node_s": fit.seconds("tao.optimize_node"),
        "tao.split_changes": fit.counter("tao.optimize_node", "true"),
        "tao.care_rows": fit.counter("tao.care_set", "rows"),
        "tao.care_set_s": fit.seconds("tao.care_set"),
        "tao.compute_reach_s": fit.seconds("tao.compute_reach"),
        "tao.prune_s": fit.seconds("tao.prune_and_reallocate"),
        "pipeline.initialize_s": fit.seconds("pipeline.initialize"),
        "pipeline.feature_phase_s": fit.seconds("pipeline.feature_phase"),
        "pipeline.tree_phase_s": fit.seconds("pipeline.tree_phase"),
        "pipeline.cycles_run": fit.count("pipeline.feature_phase"),
        "pipeline.useful_cycle_ratio": useful_cycle_ratio(
            [s.info["changed"] for s in fit.calls("pipeline.tree_phase")]),
        "pipeline.explain_us_p50": percentile(explain_us, 50) if explain_us else 0.0,
        "pipeline.explain_us_p99": percentile(explain_us, 99) if explain_us else 0.0,
        "data.save_model_ms": fit.median_ms("data.save_model"),
        "data.load_model_ms": read.median_ms("data.load_model"),
        "data.model_bytes": loads[-1].info["bytes"] if loads else 0,
        "data.load_dataset_s": read.seconds("data.load_dataset"),
        "data.ingest_mb_per_s": _ratio(read.counter("data.load_dataset", "bytes"),
                                       read.seconds("data.load_dataset")) / 1e6,
        "trace.fit_op_s": statistics.median(op["s"] for op in fit_ops),
        "trace.read_op_s": statistics.median(op["s"] for op in read_ops),
        "trace.fit_op_spans": sum(op["spans"][1] - op["spans"][0]
                                  for op in fit_ops) / len(fit_ops),
    }


def self_time_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return table
