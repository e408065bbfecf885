"""The read path: `ServedModel.predict` routes the views in place, and
`explain` walks one instance.

The oracle is the concatenated route: the views side by side in one
matrix, walked row by row with `x[feature] <= threshold`.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvc.data import load_model, save_model
from imvc.dtree import build_tree
from imvc.pipeline import ExplanationStep, PipelineConfig, ServedModel, explain
from trees import make_tree

THRESHOLDS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)


def serving_model(tree, view_dims, standardizer=None):
    """The served model of `tree` over views of widths `view_dims`."""
    config = PipelineConfig(k=tree.k, standardize=standardizer is not None)
    return ServedModel(config=config, tree=tree,
                       view_dims=list(view_dims), standardizer=standardizer)


def reference_labels(tree, X, start):
    """Leaf labels by walking each row of the concatenated matrix."""
    out = []
    for x in X:
        node = start
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(tree.label[node])
    return np.array(out, dtype=np.int64)


def reference_explanation(model, x):
    """The decision path of row x of the preprocessed views side by side:
    a walk over the tree's arrays, each step attributed to its view by
    counting the views' columns."""
    tree = model.tree
    owner = [(v, c) for v, dim in enumerate(model.view_dims)
             for c in range(dim)]
    node, steps = tree.root, []
    while tree.feature[node] >= 0:
        feature = tree.feature[node]
        went_left = bool(x[feature] <= tree.threshold[node])
        view, local = owner[feature]
        steps.append(ExplanationStep(
            feature=feature, view=view, local_feature=local,
            threshold=tree.threshold[node], went_left=went_left,
        ))
        node = tree.left[node] if went_left else tree.right[node]
    return steps, tree.label[node]


def instances(views, i):
    """Row i of the views as `explain` takes it: each view's row as a 1-D
    array, then with one-column views as bare numbers, then as (1, d)."""
    yield [view[i] for view in views]
    yield [float(view[i, 0]) if view.shape[1] == 1 else view[i]
           for view in views]
    yield [view[i:i + 1] for view in views]


def assert_explains_every_row(model, views):
    X = np.hstack(model.preprocess(views))
    labels = model.predict(views)
    for i in range(len(X)):
        expected = reference_explanation(model, X[i])
        assert expected[1] == labels[i]
        for x in instances(views, i):
            assert explain(model, x) == expected


@st.composite
def served_problems(draw):
    """Views, a tree splitting on every view's first and last column, and
    a model over them, with the standardizer on or off."""
    n_views = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dims = [1] * n_views
    else:
        dims = [draw(st.integers(1, 4)) for _ in range(n_views)]
    n = draw(st.sampled_from([0, 1, 2, 7, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # integer values, so rows fall on thresholds and test `<=`
    views = [rng.integers(-2, 3, size=(n, d)).astype(np.float64) for d in dims]
    offsets = np.cumsum([0] + dims[:-1])
    split_features = [int(f) for o, d in zip(offsets, dims)
                      for f in (o, o + d - 1)]
    split_features += [int(f) for f in rng.integers(sum(dims), size=3)]
    k = 3
    nodes = {0: 0}
    for sf in split_features:
        leaf = int(rng.choice([i for i, spec in nodes.items()
                               if not isinstance(spec, tuple)]))
        left, right = len(nodes), len(nodes) + 1
        for child in (left, right):
            nodes[child] = int(rng.integers(k))
        nodes[leaf] = (sf, float(rng.choice(THRESHOLDS)), left, right)
    tree = make_tree(nodes, k, sum(dims))
    standardizer = None
    if draw(st.booleans()):
        standardizer = [(rng.integers(-1, 2, size=d).astype(np.float64),
                         rng.choice([0.5, 1.0, 2.0], size=d))
                        for d in dims]
    return views, serving_model(tree, dims, standardizer)


@settings(max_examples=150, deadline=None)
@given(problem=served_problems())
def test_predict_equals_the_concatenated_route(problem):
    views, model = problem
    tree = model.tree
    X = np.hstack(model.preprocess(views))
    labels = model.predict(views)
    np.testing.assert_array_equal(labels, tree.predict_batch(X))
    np.testing.assert_array_equal(labels, reference_labels(tree, X, tree.root))


@settings(max_examples=150, deadline=None)
@given(problem=served_problems())
def test_route_over_views_equals_route_over_their_concatenation(problem):
    views, model = problem
    tree = model.tree
    views = model.preprocess(views)
    X = np.hstack(views)
    for start in tree.ids():
        by_views = list(tree.route(views, start))
        by_matrix = list(tree.route(X, start))
        assert [n for n, _ in by_views] == [n for n, _ in by_matrix]
        for (_, a), (_, b) in zip(by_views, by_matrix):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(tree.predict_views(views, start),
                                      reference_labels(tree, X, start))


@settings(max_examples=150, deadline=None)
@given(problem=served_problems())
def test_explain_equals_the_reference_walk(problem):
    views, model = problem
    assert_explains_every_row(model, views)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.imvc")
        assert_explains_every_row(load_model(Path(tmp) / "model.imvc"), views)


def test_explain_on_a_single_leaf_tree():
    rng = np.random.default_rng(3)
    views = [rng.standard_normal((5, d)) for d in (1, 3)]
    model = serving_model(make_tree({0: 2}, 3, 4), [1, 3])
    assert_explains_every_row(model, views)
    assert explain(model, [0.5, views[1][0]]) == ([], 2)


def test_predict_makes_no_concatenated_copy():
    """Peak allocation stays under half of the views' concatenation."""
    rng = np.random.default_rng(0)
    n, dims = 50_000, [8, 8, 8]
    views = [rng.standard_normal((n, d)) for d in dims]
    sample = np.hstack([v[:2000] for v in views])
    tree = build_tree(sample, rng.integers(0, 3, size=2000), max_depth=8,
                      min_num=10, k=3)
    assert tree.n_nodes > 50
    model = serving_model(tree, dims)
    tracemalloc.start()
    try:
        model.predict(views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * sum(dims) * 8 / 2


def test_route_rejects_views_that_do_not_fit_the_tree():
    tree = build_tree(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]),
                      max_depth=2, min_num=1, k=2)
    with pytest.raises(ValueError, match="views have 1 features, expected 2"):
        tree.predict_views([np.zeros((3, 1))])
