"""External clustering quality: purity, mapped accuracy, pairwise F1.

Accuracy maximizes the match count over one-to-one label mappings,
solved as an assignment problem on the negated contingency table.
"""

from __future__ import annotations

import math

import numpy as np


def contingency_table(pred, truth) -> np.ndarray:
    """K_pred x K_true count matrix over dense-remapped label values."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be equal-length 1-D sequences")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def purity(pred, truth) -> float:
    """Mean over predicted clusters' largest true-class intersection."""
    table = contingency_table(pred, truth)
    return float(table.max(axis=1).sum() / table.sum())


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square, finite cost matrix.

    Returns the column assigned to each row. The solver is the
    shortest-augmenting-path algorithm of Crouse, "On implementing 2D
    rectangular assignment algorithms" (IEEE TAES 2016), with the
    operation order and tie rules of scipy's `linear_sum_assignment`, so
    it picks the same matching as scipy among equal-cost ones:
    `remaining` is filled in reverse, the column scan keeps the lower path
    cost and on a tie an unassigned column, and a column leaves
    `remaining` by swap-remove.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    c = cost.tolist()           # Python floats: the same IEEE doubles, faster
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # shortest augmenting path from cur_row to an unassigned column
        spc = [math.inf] * n    # shortest path cost to each column
        in_sr = [False] * n     # rows on the path tree
        in_sc = [False] * n     # columns on the path tree
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            in_sr[i] = True
            ci, ui = c[i], u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                # summed in scipy's order: another order can round
                # differently and so break a tie the other way
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update
        u[cur_row] += min_val
        for i in range(n):
            if in_sr[i] and i != cur_row:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if in_sc[j]:
                v[j] -= min_val - spc[j]
        # augment along the path back to cur_row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.array(col4row, dtype=np.int64)


def clustering_accuracy(pred, truth) -> float:
    """Best-mapping match fraction via the assignment solver."""
    table = contingency_table(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    assignment = hungarian(-padded.astype(np.float64))
    matched = padded[np.arange(size), assignment].sum()
    return float(matched / table.sum())


def pairwise_f1(pred, truth) -> tuple[float, float, float]:
    """Precision, recall and F1 over unordered instance pairs.

    A pair counts as TP when co-clustered in both labelings, FP when
    co-clustered only in pred, FN when co-clustered only in truth.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape[0] < 2:
        raise ValueError("pairwise F1 needs at least two instances")
    table = contingency_table(pred, truth)

    def pairs(counts: np.ndarray) -> int:
        return int(np.sum(counts * (counts - 1) // 2))

    tp = pairs(table.ravel())
    same_pred = pairs(table.sum(axis=1))
    same_truth = pairs(table.sum(axis=0))
    precision = tp / same_pred if same_pred else 0.0
    recall = tp / same_truth if same_truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return float(precision), float(recall), float(f1)
