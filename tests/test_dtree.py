import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvc.dtree import (
    best_split,
    build_tree,
    gini,
    split_gini,
)
from trees import leaf_label


def exact_gini(labels):
    labels = list(labels)
    n = len(labels)
    return 1 - sum(Fraction(labels.count(c), n) ** 2
                   for c in set(labels))


def oracle_best_split(X, y):
    """Brute force over every (feature, midpoint) with exact arithmetic."""
    X = np.asarray(X, dtype=np.float64)
    y = list(np.asarray(y, dtype=np.int64))
    n, d = X.shape
    best = None
    for sf in range(d):
        vals = sorted(set(X[:, sf]))
        for lo, hi in zip(vals, vals[1:]):
            sv = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if X[i, sf] <= sv]
            right = [y[i] for i in range(n) if X[i, sf] > sv]
            score = (Fraction(len(left), n) * exact_gini(left)
                     + Fraction(len(right), n) * exact_gini(right))
            key = (score, sf, sv)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


def fraction_scan_best_split(X, y):
    """The one-candidate-at-a-time scan best_split used to be, as a reference.

    Each threshold's score a/nL + b/nR is one exact Fraction, with a and b
    the sums of squared class counts updated row by row.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    total = np.bincount(y)
    best = None
    for sf in range(d):
        order = np.argsort(X[:, sf], kind="stable")
        xs, ys = X[order, sf], y[order]
        left = np.zeros_like(total)
        right = total.copy()
        a, b = 0, int(np.sum(right * right))
        for i in range(n - 1):
            c = ys[i]
            a += 2 * int(left[c]) + 1
            left[c] += 1
            b -= 2 * int(right[c]) - 1
            right[c] -= 1
            if xs[i + 1] == xs[i]:
                continue
            score = Fraction(a * (n - i - 1) + b * (i + 1), (i + 1) * (n - i - 1))
            if best is None or score > best[0]:
                best = (score, sf, float((xs[i] + xs[i + 1]) / 2.0))
    return None if best is None else best[1:]


@st.composite
def small_integer_splits(draw):
    """Small integer-valued X (many ties, some constant columns), k <= 5."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = X[0, constant]
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return X, y


class TestGini:
    def test_pure_node(self):
        assert gini([0, 0, 0]) == 0.0

    def test_balanced_two_classes(self):
        assert gini([0, 0, 1, 1]) == 0.5

    def test_hand_evaluated(self):
        assert gini([0, 0, 1]) == pytest.approx(4 / 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            labels = rng.integers(k, size=int(rng.integers(1, 20)))
            g = gini(labels)
            assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-12
            assert (g == 0.0) == (np.unique(labels).size == 1)


class TestSplitGini:
    def test_perfect_separation(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert split_gini(X, [0, 0, 1, 1], 0, 0.5) == 0.0

    def test_degenerate_split_equals_gini(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = [0, 1, 0]
        assert split_gini(X, y, 0, 10.0) == pytest.approx(gini(y))

    def test_midpoint_separates_pairs(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert split_gini(X, [0, 0, 1, 1], 0, 2.5) == 0.0


class TestBestSplit:
    def test_simple_separable(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert best_split(X, np.array([0, 0, 1, 1])) == (0, 0.5)

    def test_constant_features_give_none(self):
        X = np.ones((4, 2))
        assert best_split(X, np.array([0, 1, 0, 1])) is None

    def test_prefers_separating_feature_over_noise(self):
        rng = np.random.default_rng(3)
        y = np.array([0, 0, 0, 1, 1, 1])
        X = np.column_stack([rng.standard_normal(6),
                             np.where(y == 0, 0.0, 1.0)])
        sf, sv = best_split(X, y)
        assert sf == 1
        assert sv == pytest.approx(0.5)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(1, 5))
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            y = rng.integers(0, 3, size=n)
            assert best_split(X, y) == oracle_best_split(X, y)

    @settings(max_examples=300, deadline=None)
    @given(small_integer_splits())
    def test_matches_oracle_on_ties_and_constant_columns(self, problem):
        X, y = problem
        assert best_split(X, y) == oracle_best_split(X, y)

    @pytest.mark.parametrize("n", [12_000, 20_000])
    def test_matches_fraction_scan_where_int64_products_overflow(self, n):
        # comparing two scores by cross-multiplication takes products up
        # to n**5 / 4, past the int64 range from n of about 12,000
        rng = np.random.default_rng(n)
        X = rng.integers(0, 40, size=(n, 3)).astype(float)
        X[:, 2] = X[:, 1]                 # exact ties across features
        y = np.where(rng.random(n) < 0.6, X[:, 1] // 14,
                     rng.integers(0, 3, n)).astype(np.int64)
        assert best_split(X, y) == fraction_scan_best_split(X, y)
        y = rng.integers(0, 3, n)
        assert best_split(X, y) == fraction_scan_best_split(X, y)


class TestBuildTree:
    def test_pure_labels_single_leaf(self):
        X = np.random.default_rng(0).standard_normal((5, 2))
        tree = build_tree(X, np.ones(5, dtype=np.int64), max_depth=10,
                          min_num=1, k=2)
        assert tree.n_nodes == 1
        assert tree.feature[tree.root] == -1
        assert tree.label[tree.root] == 1

    def test_depth_cap(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        tree = build_tree(X, y, max_depth=1, min_num=1, k=2)
        assert tree.n_nodes == 3
        assert tree.max_depth() == 1

    def test_two_pure_leaves(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = build_tree(X, np.array([0, 0, 1, 1]), max_depth=10, min_num=1,
                          k=2)
        root = tree.root
        assert (tree.feature[root], tree.threshold[root]) == (0, 1.5)
        assert tree.label[tree.left[root]] == 0
        assert tree.label[tree.right[root]] == 1

    def test_min_num_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = build_tree(X, np.array([0, 1, 0]), max_depth=10, min_num=4, k=2)
        assert tree.n_nodes == 1

    def test_grows_deeper_than_the_recursion_limit(self):
        # alternating labels on a line: each split peels off one end row,
        # so the tree is one level shorter than the rows are many
        X = np.arange(1200.0)[:, None]
        y = np.arange(1200) % 2
        tree = build_tree(X, y, max_depth=10**6, min_num=1, k=2)
        assert tree.max_depth() == 1199 > sys.getrecursionlimit()
        np.testing.assert_array_equal(tree.predict_batch(X), y)

    def test_distinct_rows_reach_zero_training_error(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((20, 3))
            y = rng.integers(0, 3, size=20)
            tree = build_tree(X, y, max_depth=30, min_num=1, k=3)
            np.testing.assert_array_equal(tree.predict_batch(X), y)
            assert tree.max_depth() <= 30


class TestPredict:
    def test_single_leaf(self):
        tree = build_tree(np.zeros((3, 2)), np.array([2, 2, 2]), max_depth=5,
                          min_num=1, k=3)
        assert list(tree.path(np.array([9.0, -9.0]))) == [tree.root]
        np.testing.assert_array_equal(
            tree.predict_batch(np.array([[9.0, -9.0]])), [2])

    def test_boundary_goes_left(self):
        X = np.array([[0.0], [1.0]])
        tree = build_tree(X, np.array([0, 1]), max_depth=5, min_num=1, k=2)
        sv = tree.threshold[tree.root]
        assert list(tree.path(np.array([sv]))) == [tree.root,
                                                    tree.left[tree.root]]
        np.testing.assert_array_equal(tree.predict_batch(np.array([[sv]])), [0])

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        tree = build_tree(X, y, max_depth=8, min_num=2, k=3)
        probes = rng.standard_normal((50, 4))
        batch = tree.predict_batch(probes)
        scalar = [leaf_label(tree, p) for p in probes]
        np.testing.assert_array_equal(batch, scalar)

    def test_dimension_mismatch(self):
        tree = build_tree(np.zeros((2, 3)), np.array([0, 0]), max_depth=2,
                          min_num=1, k=1)
        with pytest.raises(ValueError):
            tree.predict_batch(np.zeros((1, 2)))
