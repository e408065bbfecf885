"""The benchmark's tracer still hooks into imvc.

`perfbench/tracer.install` wraps imvc's functions by name, its meters
read `state.labels.hard`, and `layer_metrics` imports
`tao.MAX_SELF_LABEL_ITERATIONS`, so a rename in `src/` would leave the
benchmark recording nothing, or failing, without any test here noticing.
This test installs the tracer on a tiny fit and its read path, as the
benchmark does, and computes the per-layer metrics from the fit's spans.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from imvc import pipeline
from imvc.pipeline import PipelineConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_records_the_layers_and_restores_every_patch(tracer_module):
    rng = np.random.default_rng(2)
    views = [rng.standard_normal((30, 3)) + 4.0 * (np.arange(30) % 3)[:, None]
             for _ in range(2)]
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    patches = list(tracer._patches)
    try:
        state = pipeline.fit(views, PipelineConfig(k=3, e1=2, e2=2, min_num=2,
                                                   outer_cycles=1))
        fit_spans = len(tracer.spans)
        state.predict(views)
        pipeline.explain(state, [view[0] for view in views])
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"pipeline.initialize", "pipeline.tree_phase", "kmeans.kmeans",
            "tao.tao_pass", "pipeline.explain"} <= names
    tree_spans = [s for s in tracer.spans if s.name == "pipeline.tree_phase"]
    assert [set(s.info) for s in tree_spans] == [{"changed"}]
    assert len(patches) == 22
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original

    ops = [{"kind": "fit", "s": 1.0, "spans": [0, fit_spans]},
           {"kind": "read", "s": 0.1, "spans": [fit_spans, fit_spans]}]
    metrics = tracer_module.layer_metrics(tracer.spans, ops, state.tree)
    assert set(metrics) == set(tracer_module.PER_LAYER)
    assert metrics["tao.passes"] == state.cycles_run
    assert metrics["tao.cap_hits"] == 0
