"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
from tracer import (Span, Tracer, median_over_time,  # noqa: E402
                    partition_changed, percentile, reportable_percentile,
                    self_times, useful_cycle_ratio)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.5, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),      # overlaps a: covered time is 1..7
        Span("c", 9.0, 12.0, 0),     # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_reportable_percentile_keeps_ten_samples_beyond(n, expected):
    assert reportable_percentile(n) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))        # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_median_over_time_weights_calls_by_duration():
    # nine fast calls take 0.9 s, one slow call 3 s: most time is slow
    assert median_over_time([0.1] * 9 + [3.0]) == 3.0
    assert median_over_time([0.1] * 40 + [3.0]) == 0.1
    assert median_over_time([2.0]) == 2.0
    with pytest.raises(ValueError):
        median_over_time([])


def test_relabeled_partition_is_not_a_useful_cycle():
    before = np.array([0, 0, 1, 1, 2, 2])
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    moved = np.array([0, 1, 1, 1, 2, 2])
    flags = [partition_changed(before, relabeled),
             partition_changed(before, moved)]
    assert flags == [False, True]
    assert useful_cycle_ratio(flags) == 0.5
    assert useful_cycle_ratio([]) == 0.0


def test_wrappers_record_parent_and_restore_originals():
    mod = types.SimpleNamespace()
    mod.outer = lambda x: mod.inner(x) + 1
    mod.inner = lambda x: 2 * x
    original_inner = mod.inner
    t = Tracer()
    t.wrap(mod, "outer", "outer")
    t.wrap(mod, "inner", "inner", meter=lambda a, k, r, p: {"r": r})
    assert mod.outer(3) == 7
    t.uninstall()
    assert mod.inner is original_inner
    assert [(s.name, s.parent, s.info) for s in t.spans] == [
        ("outer", -1, None), ("inner", 0, {"r": 6})]


def test_traced_fit_counts_every_layer_call():
    from imvc import data, pipeline
    views, _ = data.synth_multiview(n_per_cluster=10, k=2, n_views=2, dims=3,
                                    noise=0.5, seed=0)
    config = pipeline.PipelineConfig(k=2, e1=3, e2=2, outer_cycles=1)
    originals = (pipeline.tree_phase, pipeline.run_kmeans)
    t = Tracer()
    tracer.install(t)
    try:
        state = pipeline.fit(views, config)
    finally:
        t.uninstall()
    ops = [{"kind": "fit", "s": 1.0, "spans": [0, len(t.spans)]},
           {"kind": "read", "s": 0.1, "spans": [len(t.spans)] * 2}]
    m = tracer.layer_metrics(t.spans, ops, state.tree)
    cycles = state.cycles_run
    assert m["pipeline.cycles_run"] == cycles
    assert m["nncore.epochs"] == 2 * 3 + 2 * 2 * cycles
    assert m["kmeans.calls"] == 1 + cycles
    assert m["kmeans.lloyd_iters"] >= 10 * (1 + cycles)
    assert m["dtree.best_split_calls"] >= 1
    assert m["tao.passes"] >= cycles
    assert set(m) == set(tracer.PER_LAYER)
    assert (pipeline.tree_phase, pipeline.run_kmeans) == originals


def test_benchmark_json_names_the_metrics_the_runs_print():
    import workloads
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
