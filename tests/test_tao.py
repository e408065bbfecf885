import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvc import tao
from imvc.data import doc_to_tree, tree_to_doc
from imvc.dtree import build_tree
from imvc.tao import (
    care_set,
    compute_reach,
    node_objective,
    optimize_node,
    optimize_tree,
    prune_and_reallocate,
    relabel_leaf,
    tao_pass,
)
from trees import internal_ids, leaf_label, make_tree


def misclassification(tree, X, Y):
    """Total count of instances whose routed leaf label differs from Y."""
    return int(np.sum(tree.predict_batch(X) != np.asarray(Y, dtype=np.int64)))


def toy_three_label_instance():
    """Six instances, three pseudo-labels, one internal node off by one.

    Tree: root splits feature 0 at 0.5; its right child is a leaf with
    label 2, its left child B splits feature 1 at 2.5 into leaves labeled
    0 (left) and 1 (right). Instance 1 (label 2) is wrong on both sides
    of B; instance 4 (label 1) is currently misrouted left but a
    threshold below its feature-1 value fixes it.
    """
    X = np.array([
        [0.0, 1.0],    # label 0, reaches B, correct left
        [0.0, 0.0],    # label 2, reaches B, wrong on both sides
        [0.0, 1.5],    # label 0, reaches B, correct left
        [0.0, 5.0],    # label 1, reaches B, correct right
        [0.0, 2.0],    # label 1, reaches B, misrouted left
        [1.0, 0.0],    # label 2, routed to the root's right leaf
    ])
    Y = np.array([0, 2, 0, 1, 1, 2])
    nodes = {0: (0, 0.5, 1, 2), 1: (1, 2.5, 3, 4), 2: 2, 3: 0, 4: 1}
    return make_tree(nodes, 3, 2), X, Y


class TestReach:
    def test_root_holds_everything_and_children_partition(self):
        tree, X, _ = toy_three_label_instance()
        reach = compute_reach(tree, X)
        np.testing.assert_array_equal(sorted(reach[0]), np.arange(6))
        for node_id in (0, 1):
            merged = sorted([*reach[tree.left[node_id]],
                             *reach[tree.right[node_id]]])
            np.testing.assert_array_equal(merged, sorted(reach[node_id]))


def random_tree(seed):
    """A random tree over 3 integer-valued features, with shuffled node ids.

    Thresholds come from the feature values themselves, so rows often sit
    exactly on a threshold, and some branches receive no rows at all.
    """
    rng = np.random.default_rng(seed)
    ids = iter(rng.permutation(64).tolist())
    nodes = {}

    def grow(depth):
        node_id = next(ids)
        if depth == 4 or rng.random() < 0.3:
            nodes[node_id] = int(rng.integers(3))
        else:
            split = int(rng.integers(3)), float(rng.integers(-1, 5))
            nodes[node_id] = (*split, grow(depth + 1), grow(depth + 1))
        return node_id

    root = grow(0)
    X = rng.integers(0, 4, size=(int(rng.integers(0, 40)), 3)).astype(float)
    return make_tree(nodes, 3, 3, root=root), X


class TestRoutingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batch_walk_matches_scalar_walk_from_every_node(self, seed):
        tree, X = random_tree(seed)
        for start in tree.ids():
            expected = [leaf_label(tree, x, start) for x in X]
            np.testing.assert_array_equal(tree.predict_batch(X, start=start),
                                          np.array(expected, dtype=np.int64))
        for x in X:
            *_, leaf = tree.path(x)
            assert tree.label[leaf] == leaf_label(tree, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reach_partitions_rows_at_every_internal_node(self, seed):
        tree, X = random_tree(seed)
        reach = compute_reach(tree, X)
        assert set(reach) == set(tree.ids())
        np.testing.assert_array_equal(reach[tree.root], np.arange(len(X)))
        for node_id in internal_ids(tree):
            left, right = reach[tree.left[node_id]], reach[tree.right[node_id]]
            assert not set(left) & set(right)
            np.testing.assert_array_equal(np.sort(np.r_[left, right]),
                                          reach[node_id])
            sf, sv = tree.feature[node_id], tree.threshold[node_id]
            for i in left:
                assert X[i, sf] <= sv
            for i in right:
                assert X[i, sf] > sv


class TestRelabelLeaf:
    def test_majority(self):
        tree, X, _ = toy_three_label_instance()
        changed = relabel_leaf(tree, 3, np.array([0, 1, 2]),
                               np.array([0, 0, 1, 9, 9, 9]))
        assert not changed
        assert tree.label[3] == 0

    def test_empty_reach_is_noop(self):
        tree, _, Y = toy_three_label_instance()
        assert not relabel_leaf(tree, 2, np.array([], dtype=int), Y)
        assert tree.label[2] == 2

    def test_tie_breaks_to_smaller_cluster(self):
        tree, _, _ = toy_three_label_instance()
        relabel_leaf(tree, 4, np.array([0, 1]), np.array([2, 1]))
        assert tree.label[4] == 1


class TestSubtreeLabel:
    def test_leaf_is_its_label(self):
        tree, X, _ = toy_three_label_instance()
        np.testing.assert_array_equal(tree.predict_batch(X[:1], start=2), [2])

    def test_depth_one_subtree(self):
        tree, X, _ = toy_three_label_instance()
        np.testing.assert_array_equal(
            tree.predict_batch(np.array([[0.0, 1.0], [0.0, 3.0]]), start=1),
            [0, 1])

    def test_root_matches_predict(self):
        tree, X, _ = toy_three_label_instance()
        np.testing.assert_array_equal(tree.predict_batch(X, start=tree.root),
                                      tree.predict_batch(X))

    def test_path_follows_the_threshold_tests(self):
        tree, _, _ = toy_three_label_instance()
        assert list(tree.path(np.array([0.0, 2.5]))) == [0, 1, 3]
        assert list(tree.path(np.array([0.0, 2.6]))) == [0, 1, 4]
        assert list(tree.path(np.array([0.7, 0.0]))) == [0, 2]
        # from B, the row goes left to leaf 3 (label 0) although the root
        # would send it right
        np.testing.assert_array_equal(
            tree.predict_batch(np.array([[0.7, 0.0]]), start=1), [0])


class TestCareSet:
    def test_same_label_children_give_empty_care_set(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = make_tree({0: (0, 0.5, 1, 2), 1: 0, 2: 0}, 2, 1)
        care = care_set(tree, 0, np.arange(3), X, np.array([0, 1, 0]))
        assert care.rows.tolist() == [] and care.correct_left.tolist() == []

    def test_toy_excludes_unfixable_instance(self):
        tree, X, Y = toy_three_label_instance()
        reach = compute_reach(tree, X)
        care = care_set(tree, 1, reach[1], X, Y)
        indices = set(care.rows.tolist())
        assert indices == {0, 2, 3, 4}      # instance 1 excluded
        correct_left = dict(zip(care.rows.tolist(), care.correct_left.tolist()))
        assert not correct_left[4]          # only the right side is correct

    def test_matches_force_both_sides_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 3))
            y = rng.integers(0, 3, size=40)
            tree = build_tree(X, rng.integers(0, 3, size=40), 4, 2, 3)
            reach = compute_reach(tree, X)
            for node_id in internal_ids(tree):
                care = care_set(tree, node_id, reach[node_id], X, y)
                lookup = dict(zip(care.rows.tolist(),
                                  care.correct_left.tolist()))
                for i in reach[node_id].tolist():
                    left_ok = leaf_label(tree, X[i], tree.left[node_id]) == y[i]
                    right_ok = leaf_label(tree, X[i], tree.right[node_id]) == y[i]
                    if left_ok != right_ok:
                        assert lookup[i] == left_ok
                    else:
                        assert i not in lookup


def oracle_optimize_node(tree, node_id, idx, X, Y):
    """(changed, sf, sv) by brute force over every (feature, midpoint).

    Counts the care-set misroutes of each candidate one row at a time and
    keeps the current split unless some candidate misroutes fewer; ties go
    to the lowest count, then feature, then threshold.
    """
    care = []
    for i in idx:
        left_ok = leaf_label(tree, X[i], tree.left[node_id]) == Y[i]
        right_ok = leaf_label(tree, X[i], tree.right[node_id]) == Y[i]
        if left_ok != right_ok:
            care.append((i, left_ok))

    def misroutes(sf, sv):
        return sum((X[i, sf] <= sv) != left_ok for i, left_ok in care)

    best = None
    for sf in range(X.shape[1]):
        vals = sorted(set(X[idx, sf].tolist()))
        for lo, hi in zip(vals, vals[1:]):
            key = (misroutes(sf, (lo + hi) / 2.0), sf, (lo + hi) / 2.0)
            best = key if best is None else min(best, key)
    current = misroutes(tree.feature[node_id], tree.threshold[node_id])
    if care and best is not None and best[0] < current:
        return True, best[1], best[2]
    return False, tree.feature[node_id], tree.threshold[node_id]


def assert_every_node_matches_brute_force(tree, X, Y):
    """optimize_node on each internal node of a copy agrees with the oracle."""
    reach = compute_reach(tree, X)
    for node_id in internal_ids(tree):
        expected = oracle_optimize_node(tree, node_id, reach[node_id], X, Y)
        trial = copy.deepcopy(tree)
        changed = optimize_node(trial, node_id, reach[node_id], X, Y)
        got = (changed, trial.feature[node_id], trial.threshold[node_id])
        assert got == expected


class TestOptimizeNode:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_on_random_trees(self, seed):
        # integer-valued features: many duplicates, rows on thresholds, ties
        tree, X = random_tree(seed)
        assert_every_node_matches_brute_force(
            tree, X, np.random.default_rng(seed).integers(0, 3, size=len(X)))

    def test_matches_brute_force_on_grown_trees(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = np.round(rng.standard_normal((80, 3)), 1)
            tree = build_tree(X, rng.integers(0, 3, size=80), 4, 2, 3)
            assert_every_node_matches_brute_force(tree, X,
                                                  rng.integers(0, 3, size=80))

    def test_toy_objective_drops_from_one_to_zero(self):
        tree, X, Y = toy_three_label_instance()
        reach = compute_reach(tree, X)
        care = care_set(tree, 1, reach[1], X, Y)
        assert node_objective(tree, 1, X, care) == 1
        assert optimize_node(tree, 1, reach[1], X, Y)
        care = care_set(tree, 1, reach[1], X, Y)
        assert node_objective(tree, 1, X, care) == 0

    def test_empty_care_set_keeps_split(self):
        X = np.array([[0.0], [1.0]])
        tree = make_tree({0: (0, 0.5, 1, 2), 1: 0, 2: 0}, 2, 1)
        assert not optimize_node(tree, 0, np.arange(2), X, np.array([0, 0]))
        assert tree.threshold[0] == 0.5

    def test_single_care_instance_gets_routed_correctly(self):
        # instance 0 is correct only on the left; current split sends it right
        X = np.array([[3.0], [0.0], [5.0]])
        Y = np.array([0, 0, 1])
        tree = make_tree({0: (0, 1.0, 1, 2), 1: 0, 2: 1}, 2, 1)
        assert optimize_node(tree, 0, np.arange(3), X, Y)
        assert X[0, 0] <= tree.threshold[0]


class TestTaoPass:
    def test_fixed_point_unchanged(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([0, 0, 1, 1])
        tree = build_tree(X, Y, max_depth=5, min_num=1, k=2)
        assert not tao_pass(tree, X, Y)

    def test_toy_total_loss_drops_by_one(self):
        tree, X, Y = toy_three_label_instance()
        before = misclassification(tree, X, Y)
        tao_pass(tree, X, Y)
        after = misclassification(tree, X, Y)
        assert before == 2            # instances 1 and 4 start misassigned
        assert after == 1             # 4 rerouted; 1 is unfixable at this node

    def test_loss_never_increases(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((60, 3))
            y_build = rng.integers(0, 3, size=60)
            y_opt = rng.integers(0, 3, size=60)
            tree = build_tree(X, y_build, max_depth=4, min_num=3, k=3)
            prev = misclassification(tree, X, y_opt)
            for _ in range(3):
                tao_pass(tree, X, y_opt)
                cur = misclassification(tree, X, y_opt)
                assert cur <= prev
                prev = cur


def tree_arrays(tree):
    """The root and all seven node arrays, holes included."""
    return (tree.root, *(getattr(tree, name).tolist() for name in (
        "feature", "threshold", "left", "right", "label", "count", "depth")))


@st.composite
def built_trees(draw):
    """A CART tree on float or integer-grid rows, random build labels, and
    random target labels for TAO."""
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    else:
        X = rng.standard_normal((n, d))
    tree = build_tree(X, rng.integers(0, k, size=n),
                      max_depth=draw(st.integers(1, 6)),
                      min_num=draw(st.integers(1, 5)), k=k)
    return tree, X, rng.integers(0, k, size=n)


class TestSelfLabelledPass:
    @settings(max_examples=300, deadline=None)
    @given(built_trees())
    def test_pass_on_own_predictions_changes_nothing(self, case):
        tree, X, Y = case
        tao_pass(tree, X, Y)
        after = tree_arrays(tree)
        assert not tao_pass(tree, X, tree.predict_batch(X))
        assert tree_arrays(tree) == after


# Rows for `stacked_one_sided_tree`: all that reach node 1 go left and all
# that reach node 3 go right, so pruning splices out 1 and 3 and leaves
# ids 1, 3, 4 and 5 as holes.
STACKED_X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])


def stacked_one_sided_tree():
    return make_tree({0: (0, 0.5, 1, 2), 1: (0, 10.0, 3, 4), 2: 2,
                      3: (0, -10.0, 5, 6), 4: 0, 5: 0, 6: (1, 0.5, 7, 8),
                      7: 0, 8: 1}, 3, 2)


class TestPrune:
    def test_no_empty_nodes_is_identity(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = build_tree(X, np.array([0, 0, 1, 1]), max_depth=5, min_num=1,
                          k=2)
        n_before = tree.n_nodes
        assert not prune_and_reallocate(tree, X)
        assert tree.n_nodes == n_before
        np.testing.assert_array_equal(
            sorted(compute_reach(tree, X)[tree.root]), np.arange(4))

    def test_all_left_internal_node_is_replaced(self):
        X = np.array([[0.0], [1.0]])
        # everything goes left
        tree = make_tree({0: (0, 5.0, 1, 2), 1: 1, 2: 0}, 2, 1)
        assert prune_and_reallocate(tree, X)
        assert tree.n_nodes == 1
        assert tree.label[tree.root] == 1
        assert tree.depth[tree.root] == 0

    def test_stacked_one_sided_nodes_are_both_spliced(self):
        X = STACKED_X
        tree = stacked_one_sided_tree()
        before = tree.predict_batch(X)
        assert prune_and_reallocate(tree, X)
        assert tree.ids() == [0, 2, 6, 7, 8]
        assert (tree.root, tree.left[0], tree.right[0]) == (0, 6, 2)
        assert (tree.left[6], tree.right[6]) == (7, 8)
        assert {i: tree.depth[i] for i in tree.ids()} == {
            0: 0, 2: 1, 6: 1, 7: 2, 8: 2}
        assert {i: tree.count[i] for i in tree.ids()} == {
            0: 4, 2: 1, 6: 3, 7: 1, 8: 2}
        reach = compute_reach(tree, X)
        assert sorted(reach) == [0, 2, 6, 7, 8]
        expected = {0: [0, 1, 2, 3], 2: [3], 6: [0, 1, 2], 7: [0], 8: [1, 2]}
        for node_id, rows in expected.items():
            np.testing.assert_array_equal(reach[node_id], rows)
        np.testing.assert_array_equal(tree.predict_batch(X), before)
        assert not prune_and_reallocate(tree, X)

    def test_holes_survive_a_document_round_trip(self):
        tree = stacked_one_sided_tree()
        prune_and_reallocate(tree, STACKED_X)
        assert tree.ids() == [0, 2, 6, 7, 8] and len(tree.depth) == 9
        assert (tree.n_nodes, tree.max_depth()) == (5, 2)
        doc = json.dumps(tree_to_doc(tree, [0, 1]), sort_keys=True)
        restored = doc_to_tree(json.loads(doc))
        assert json.dumps(tree_to_doc(restored, [0, 1]), sort_keys=True) == doc
        assert (restored.n_nodes, restored.max_depth()) == (5, 2)
        probes = np.random.default_rng(0).integers(-1, 3, size=(200, 2))
        probes = probes.astype(np.float64)
        assert ([(i, rows.tolist()) for i, rows in restored.route(probes)]
                == [(i, rows.tolist()) for i, rows in tree.route(probes)])

    def test_reach_partitions_after_prune(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((50, 2))
            tree = build_tree(X, rng.integers(0, 3, size=50), 5, 2, 3)
            # force an empty branch
            root = tree.root
            if tree.feature[root] >= 0:
                tree.threshold[root] = X[:, tree.feature[root]].max() + 1.0
            prune_and_reallocate(tree, X)
            reach = compute_reach(tree, X)
            for node_id in internal_ids(tree):
                merged = sorted([*reach[tree.left[node_id]],
                                 *reach[tree.right[node_id]]])
                np.testing.assert_array_equal(merged, sorted(reach[node_id]))


class TestOptimizeTree:
    def test_runs_one_pass(self, monkeypatch):
        calls = []
        real_pass = tao.tao_pass

        def counting_pass(*args):
            calls.append(real_pass(*args))
            return calls[-1]

        monkeypatch.setattr(tao, "tao_pass", counting_pass)
        tree, X, Y = toy_three_label_instance()
        optimize_tree(tree, X, Y)
        assert calls == [True]

    def test_single_leaf_converges_immediately(self):
        X = np.zeros((4, 1))
        tree = build_tree(X, np.array([1, 1, 1, 1]), max_depth=3, min_num=1,
                          k=2)
        optimize_tree(tree, X, np.array([1, 1, 1, 1]))
        assert tree.n_nodes == 1

    def test_optimal_tree_is_fixed_point(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([0, 0, 1, 1])
        tree = build_tree(X, Y, max_depth=5, min_num=1, k=2)
        doc_before = tree_to_doc(tree, [0])
        optimize_tree(tree, X, Y)
        assert tree_to_doc(tree, [0]) == doc_before

    def test_terminates_and_never_grows(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            X = rng.standard_normal((n, 4))
            tree = build_tree(X, rng.integers(0, 4, size=n), 6, 3, 4)
            size_before = tree.n_nodes
            y = rng.integers(0, 4, size=n)
            before = misclassification(tree, X, y)
            optimize_tree(tree, X, y)
            final_labels = tree.predict_batch(X)
            assert misclassification(tree, X, final_labels) <= before
            assert tree.n_nodes <= size_before
