import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvc.dtree import (
    INTERNAL,
    LEAF,
    DecisionTree,
    TreeNode,
    build_tree,
)
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


def make_tree(nodes, root, k, feature_dim):
    return DecisionTree(nodes={n.id: n for n in nodes}, root=root, k=k,
                        feature_dim=feature_dim)


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
    nodes = [
        TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                 split_value=0.5, left=1, right=2),
        TreeNode(id=1, kind=INTERNAL, depth=1, split_feature=1,
                 split_value=2.5, left=3, right=4),
        TreeNode(id=2, kind=LEAF, depth=1, label=2),
        TreeNode(id=3, kind=LEAF, depth=2, label=0),
        TreeNode(id=4, kind=LEAF, depth=2, label=1),
    ]
    return make_tree(nodes, 0, 3, 2), X, Y


class TestReach:
    def test_root_holds_everything_and_children_partition(self):
        tree, X, _ = toy_three_label_instance()
        reach = compute_reach(tree, X)
        np.testing.assert_array_equal(sorted(reach[0]), np.arange(6))
        for node_id in (0, 1):
            node = tree.node(node_id)
            merged = sorted([*reach[node.left], *reach[node.right]])
            np.testing.assert_array_equal(merged, sorted(reach[node_id]))


def random_tree(seed):
    """A random tree over 3 integer-valued features, with shuffled node ids.

    Thresholds come from the feature values themselves, so rows often sit
    exactly on a threshold, and some branches receive no rows at all.
    """
    rng = np.random.default_rng(seed)
    ids = iter(rng.permutation(64).tolist())
    nodes = []

    def grow(depth):
        node_id = next(ids)
        if depth == 4 or rng.random() < 0.3:
            nodes.append(TreeNode(id=node_id, kind=LEAF, depth=depth,
                                  label=int(rng.integers(3))))
        else:
            node = TreeNode(id=node_id, kind=INTERNAL, depth=depth,
                            split_feature=int(rng.integers(3)),
                            split_value=float(rng.integers(-1, 5)))
            nodes.append(node)
            node.left = grow(depth + 1)
            node.right = grow(depth + 1)
        return node_id

    root = grow(0)
    X = rng.integers(0, 4, size=(int(rng.integers(0, 40)), 3)).astype(float)
    return make_tree(nodes, root, 3, 3), X


class TestRoutingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batch_walk_matches_scalar_walk_from_every_node(self, seed):
        tree, X = random_tree(seed)
        for start in tree.nodes:
            expected = [tree.predict(x, start=start) for x in X]
            np.testing.assert_array_equal(tree.predict_batch(X, start=start),
                                          np.array(expected, dtype=np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reach_partitions_rows_at_every_internal_node(self, seed):
        tree, X = random_tree(seed)
        reach = compute_reach(tree, X)
        assert set(reach) == set(tree.nodes)
        np.testing.assert_array_equal(reach[tree.root], np.arange(len(X)))
        for node in tree.nodes.values():
            if node.kind == INTERNAL:
                left, right = reach[node.left], reach[node.right]
                assert not set(left) & set(right)
                np.testing.assert_array_equal(np.sort(np.r_[left, right]),
                                              reach[node.id])
                for i in left:
                    assert X[i, node.split_feature] <= node.split_value
                for i in right:
                    assert X[i, node.split_feature] > node.split_value


class TestRelabelLeaf:
    def test_majority(self):
        tree, X, _ = toy_three_label_instance()
        changed = relabel_leaf(tree, 3, np.array([0, 1, 2]),
                               np.array([0, 0, 1, 9, 9, 9]))
        assert not changed
        assert tree.node(3).label == 0

    def test_empty_reach_is_noop(self):
        tree, _, Y = toy_three_label_instance()
        assert not relabel_leaf(tree, 2, np.array([], dtype=int), Y)
        assert tree.node(2).label == 2

    def test_tie_breaks_to_smaller_cluster(self):
        tree, _, _ = toy_three_label_instance()
        relabel_leaf(tree, 4, np.array([0, 1]), np.array([2, 1]))
        assert tree.node(4).label == 1


class TestSubtreeLabel:
    def test_leaf_is_its_label(self):
        tree, X, _ = toy_three_label_instance()
        assert tree.predict(X[0], start=2) == 2

    def test_depth_one_subtree(self):
        tree, X, _ = toy_three_label_instance()
        assert tree.predict(np.array([0.0, 1.0]), start=1) == 0
        assert tree.predict(np.array([0.0, 3.0]), start=1) == 1

    def test_root_matches_predict(self):
        tree, X, _ = toy_three_label_instance()
        for x in X:
            assert tree.predict(x, start=tree.root) == tree.predict(x)

    def test_path_follows_the_threshold_tests(self):
        tree, _, _ = toy_three_label_instance()
        assert list(tree.path(np.array([0.0, 2.5]))) == [0, 1, 3]
        assert list(tree.path(np.array([0.0, 2.6]))) == [0, 1, 4]
        assert list(tree.path(np.array([0.7, 0.0]))) == [0, 2]
        assert list(tree.path(np.array([0.7, 0.0]), start=1)) == [1, 3]


class TestCareSet:
    def test_same_label_children_give_empty_care_set(self):
        X = np.array([[0.0], [1.0], [2.0]])
        nodes = [
            TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                     split_value=0.5, left=1, right=2),
            TreeNode(id=1, kind=LEAF, depth=1, label=0),
            TreeNode(id=2, kind=LEAF, depth=1, label=0),
        ]
        tree = make_tree(nodes, 0, 2, 1)
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
            tree = build_tree(X, rng.integers(0, 3, size=40), 4, 2)
            reach = compute_reach(tree, X)
            for node in tree.nodes.values():
                if node.kind != INTERNAL:
                    continue
                care = care_set(tree, node.id, reach[node.id], X, y)
                lookup = dict(zip(care.rows.tolist(),
                                  care.correct_left.tolist()))
                for i in reach[node.id].tolist():
                    left_ok = tree.predict(X[i], start=node.left) == y[i]
                    right_ok = tree.predict(X[i], start=node.right) == y[i]
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
    node = tree.node(node_id)
    care = []
    for i in idx:
        left_ok = tree.predict(X[i], start=node.left) == Y[i]
        right_ok = tree.predict(X[i], start=node.right) == Y[i]
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
    current = misroutes(node.split_feature, node.split_value)
    if care and best is not None and best[0] < current:
        return True, best[1], best[2]
    return False, node.split_feature, node.split_value


def assert_every_node_matches_brute_force(tree, X, Y):
    """optimize_node on each internal node of a copy agrees with the oracle."""
    reach = compute_reach(tree, X)
    for node in tree.nodes.values():
        if node.kind != INTERNAL:
            continue
        expected = oracle_optimize_node(tree, node.id, reach[node.id], X, Y)
        trial = copy.deepcopy(tree)
        changed = optimize_node(trial, node.id, reach[node.id], X, Y)
        got = trial.node(node.id)
        assert (changed, got.split_feature, got.split_value) == expected


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
            tree = build_tree(X, rng.integers(0, 3, size=80), 4, 2)
            assert_every_node_matches_brute_force(tree, X,
                                                  rng.integers(0, 3, size=80))

    def test_toy_objective_drops_from_one_to_zero(self):
        tree, X, Y = toy_three_label_instance()
        reach = compute_reach(tree, X)
        node = tree.node(1)
        care = care_set(tree, 1, reach[1], X, Y)
        assert node_objective(node, X, care) == 1
        assert optimize_node(tree, 1, reach[1], X, Y)
        care = care_set(tree, 1, reach[1], X, Y)
        assert node_objective(tree.node(1), X, care) == 0

    def test_empty_care_set_keeps_split(self):
        X = np.array([[0.0], [1.0]])
        nodes = [
            TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                     split_value=0.5, left=1, right=2),
            TreeNode(id=1, kind=LEAF, depth=1, label=0),
            TreeNode(id=2, kind=LEAF, depth=1, label=0),
        ]
        tree = make_tree(nodes, 0, 2, 1)
        assert not optimize_node(tree, 0, np.arange(2), X, np.array([0, 0]))
        assert tree.node(0).split_value == 0.5

    def test_single_care_instance_gets_routed_correctly(self):
        # instance 0 is correct only on the left; current split sends it right
        X = np.array([[3.0], [0.0], [5.0]])
        Y = np.array([0, 0, 1])
        nodes = [
            TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                     split_value=1.0, left=1, right=2),
            TreeNode(id=1, kind=LEAF, depth=1, label=0),
            TreeNode(id=2, kind=LEAF, depth=1, label=1),
        ]
        tree = make_tree(nodes, 0, 2, 1)
        assert optimize_node(tree, 0, np.arange(3), X, Y)
        assert X[0, 0] <= tree.node(0).split_value


class TestTaoPass:
    def test_fixed_point_unchanged(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([0, 0, 1, 1])
        tree = build_tree(X, Y, max_depth=5, min_num=1)
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
            tree = build_tree(X, y_build, max_depth=4, min_num=3)
            prev = misclassification(tree, X, y_opt)
            for _ in range(3):
                tao_pass(tree, X, y_opt)
                cur = misclassification(tree, X, y_opt)
                assert cur <= prev
                prev = cur


class TestPrune:
    def test_no_empty_nodes_is_identity(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = build_tree(X, [0, 0, 1, 1], max_depth=5, min_num=1)
        n_before = tree.n_nodes
        changed, reach = prune_and_reallocate(tree, X)
        assert not changed
        assert tree.n_nodes == n_before
        np.testing.assert_array_equal(sorted(reach[tree.root]), np.arange(4))

    def test_all_left_internal_node_is_replaced(self):
        X = np.array([[0.0], [1.0]])
        nodes = [
            TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                     split_value=5.0, left=1, right=2),   # everything left
            TreeNode(id=1, kind=LEAF, depth=1, label=1),
            TreeNode(id=2, kind=LEAF, depth=1, label=0),
        ]
        tree = make_tree(nodes, 0, 2, 1)
        changed, _ = prune_and_reallocate(tree, X)
        assert changed
        assert tree.n_nodes == 1
        assert tree.node(tree.root).label == 1
        assert tree.node(tree.root).depth == 0

    def test_stacked_one_sided_nodes_are_both_spliced(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        nodes = [
            TreeNode(id=0, kind=INTERNAL, depth=0, split_feature=0,
                     split_value=0.5, left=1, right=2),
            TreeNode(id=1, kind=INTERNAL, depth=1, split_feature=0,
                     split_value=10.0, left=3, right=4),    # everything left
            TreeNode(id=2, kind=LEAF, depth=1, label=2),
            TreeNode(id=3, kind=INTERNAL, depth=2, split_feature=0,
                     split_value=-10.0, left=5, right=6),   # everything right
            TreeNode(id=4, kind=LEAF, depth=2, label=0),
            TreeNode(id=5, kind=LEAF, depth=3, label=0),
            TreeNode(id=6, kind=INTERNAL, depth=3, split_feature=1,
                     split_value=0.5, left=7, right=8),
            TreeNode(id=7, kind=LEAF, depth=4, label=0),
            TreeNode(id=8, kind=LEAF, depth=4, label=1),
        ]
        tree = make_tree(nodes, 0, 3, 2)
        before = tree.predict_batch(X)
        changed, reach = prune_and_reallocate(tree, X)
        assert changed
        assert sorted(tree.nodes) == [0, 2, 6, 7, 8]
        assert (tree.root, tree.node(0).left, tree.node(0).right) == (0, 6, 2)
        assert (tree.node(6).left, tree.node(6).right) == (7, 8)
        assert {i: n.depth for i, n in tree.nodes.items()} == {
            0: 0, 2: 1, 6: 1, 7: 2, 8: 2}
        assert {i: n.count for i, n in tree.nodes.items()} == {
            0: 4, 2: 1, 6: 3, 7: 1, 8: 2}
        assert sorted(reach) == [0, 2, 6, 7, 8]
        expected = {0: [0, 1, 2, 3], 2: [3], 6: [0, 1, 2], 7: [0], 8: [1, 2]}
        for node_id, rows in expected.items():
            np.testing.assert_array_equal(reach[node_id], rows)
        np.testing.assert_array_equal(tree.predict_batch(X), before)
        assert not prune_and_reallocate(tree, X)[0]

    def test_reach_partitions_after_prune(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((50, 2))
            tree = build_tree(X, rng.integers(0, 3, size=50), 5, 2)
            # force an empty branch
            root = tree.node(tree.root)
            if root.kind == INTERNAL:
                root.split_value = X[:, root.split_feature].max() + 1.0
            _, reach = prune_and_reallocate(tree, X)
            for node in tree.nodes.values():
                if node.kind == INTERNAL:
                    merged = sorted([*reach[node.left], *reach[node.right]])
                    np.testing.assert_array_equal(merged, sorted(reach[node.id]))


class TestOptimizeTree:
    def test_single_leaf_converges_immediately(self):
        X = np.zeros((4, 1))
        tree = build_tree(X, [1, 1, 1, 1], max_depth=3, min_num=1)
        optimize_tree(tree, X, np.array([1, 1, 1, 1]))
        assert tree.n_nodes == 1

    def test_optimal_tree_is_fixed_point(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([0, 0, 1, 1])
        tree = build_tree(X, Y, max_depth=5, min_num=1)
        doc_before = [(n.id, n.kind, n.split_feature, n.split_value, n.label)
                      for n in tree.nodes.values()]
        optimize_tree(tree, X, Y)
        doc_after = [(n.id, n.kind, n.split_feature, n.split_value, n.label)
                     for n in tree.nodes.values()]
        assert doc_before == doc_after

    def test_terminates_and_never_grows(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            X = rng.standard_normal((n, 4))
            tree = build_tree(X, rng.integers(0, 4, size=n), 6, 3)
            size_before = tree.n_nodes
            y = rng.integers(0, 4, size=n)
            before = misclassification(tree, X, y)
            optimize_tree(tree, X, y)
            final_labels = tree.predict_batch(X)
            assert misclassification(tree, X, final_labels) <= before
            assert tree.n_nodes <= size_before
