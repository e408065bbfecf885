import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from imvc.metrics import (
    clustering_accuracy,
    contingency_table,
    hungarian,
    pairwise_f1,
    purity,
)


class TestPurity:
    def test_identical_labelings(self):
        assert purity([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_constant_prediction_balanced_truth(self):
        assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_hand_enumerated_intersections(self):
        pred = [0, 0, 0, 1, 1]
        truth = [1, 1, 2, 2, 2]
        assert purity(pred, truth) == pytest.approx(0.8)

    def test_one_iff_every_cluster_pure(self):
        assert purity([0, 0, 1, 1, 2], [5, 5, 7, 7, 5]) == 1.0
        assert purity([0, 0, 1], [5, 7, 7]) < 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            purity([0, 1], [0])


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.full((3, 3), 10.0)
        np.fill_diagonal(cost, 0.0)
        np.testing.assert_array_equal(hungarian(cost), [0, 1, 2])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            cost = rng.standard_normal((k, k))
            assignment = hungarian(cost)
            got = cost[np.arange(k), assignment].sum()
            best = min(
                sum(cost[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            assert got == pytest.approx(best)

    def test_all_equal_costs(self):
        assignment = hungarian(np.full((4, 4), 2.5))
        assert sorted(assignment) == [0, 1, 2, 3]


def scipy_assignment(cost) -> np.ndarray:
    """scipy's matching as the column for each row."""
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(len(rows), dtype=np.int64)
    assignment[rows] = cols
    return assignment


@st.composite
def square_costs(draw):
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["ties", "negative", "constant", "float"]))
    if kind == "constant":
        return np.full((n, n), float(draw(st.integers(-3, 3))))
    elements = {
        "ties": st.integers(0, 3),
        "negative": st.integers(-3, 0),
        "float": st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    }[kind]
    cells = draw(st.lists(elements, min_size=n * n, max_size=n * n))
    return np.array(cells, dtype=np.float64).reshape(n, n)


@st.composite
def label_tables(draw):
    """The negated k x k table tree_phase matches k-means labels by."""
    k = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                    st.integers(0, k - 1)), max_size=60))
    km = np.array([p[0] for p in pairs], dtype=np.int64)
    hard = np.array([p[1] for p in pairs], dtype=np.int64)
    return -np.bincount(km * k + hard, minlength=k * k).reshape(k, k)


class TestHungarianMatchesScipy:
    """The same column for every row as scipy, ties included, so the
    labels tree_phase aligns, and the saved model, do not depend on which
    solver ran."""

    @settings(max_examples=400, deadline=None)
    @given(square_costs())
    def test_square_costs(self, cost):
        np.testing.assert_array_equal(hungarian(cost), scipy_assignment(cost))

    @settings(max_examples=200, deadline=None)
    @given(label_tables())
    def test_negated_label_tables(self, table):
        np.testing.assert_array_equal(hungarian(table), scipy_assignment(table))


class TestClusteringAccuracy:
    def test_relabeled_prediction_is_perfect(self):
        truth = [0, 1, 2, 0, 1]
        pred = [2, 0, 1, 2, 0]
        assert clustering_accuracy(pred, truth) == 1.0

    def test_half_right_under_both_mappings(self):
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_single_instance(self):
        assert clustering_accuracy([3], [7]) == 1.0

    def test_unequal_cardinalities(self):
        # 3 predicted clusters against 2 true ones
        assert clustering_accuracy([0, 1, 2, 2], [0, 0, 1, 1]) == pytest.approx(0.75)


class TestPairwiseF1:
    def test_identical_labelings(self):
        assert pairwise_f1([0, 1, 0, 1], [1, 0, 1, 0]) == (1.0, 1.0, 1.0)

    def test_enumerated_six_pairs(self):
        precision, recall, f1 = pairwise_f1([0, 0, 0, 0], [0, 0, 1, 1])
        assert precision == pytest.approx(1 / 3)
        assert recall == 1.0
        assert f1 == pytest.approx(0.5)

    def test_all_singletons(self):
        precision, recall, f1 = pairwise_f1([0, 1, 2, 3], [0, 0, 1, 1])
        assert recall == 0.0
        assert f1 == 0.0

    def test_pair_counts_cover_all_pairs(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 3, size=30)
        table = contingency_table(pred, truth)
        tp = int(np.sum(table * (table - 1) // 2))
        same_pred = int(np.sum([c * (c - 1) // 2 for c in table.sum(axis=1)]))
        same_truth = int(np.sum([c * (c - 1) // 2 for c in table.sum(axis=0)]))
        fp = same_pred - tp
        fn = same_truth - tp
        total = 30 * 29 // 2
        tn = total - tp - fp - fn
        assert tp + fp + fn + tn == total
        assert tn >= 0

    def test_too_few_instances(self):
        with pytest.raises(ValueError):
            pairwise_f1([0], [0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=30),
       st.data())
def test_metrics_invariant_under_label_permutation(pred, data):
    truth = data.draw(st.lists(st.integers(0, 3), min_size=len(pred),
                               max_size=len(pred)))
    pred_perm = [(p * 7 + 3) % 11 for p in pred]        # injective rename
    truth_perm = [(t * 5 + 1) % 13 for t in truth]
    assert purity(pred, truth) == pytest.approx(purity(pred_perm, truth_perm))
    assert clustering_accuracy(pred, truth) == pytest.approx(
        clustering_accuracy(pred_perm, truth_perm))
    assert pairwise_f1(pred, truth) == pytest.approx(
        pairwise_f1(pred_perm, truth_perm))
