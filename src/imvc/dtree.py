"""CART construction with the Gini criterion over concatenated features,
and the tree's routing of instances.

The tree's features are the views' columns side by side: global feature
f is column c of view v, with (v, c) = `feature_attribution(f, offsets)`
for the views' column offsets. `route` takes the views as they are and
reads each split's column in place, so no caller concatenates views to
route a batch; a single matrix is the one-view case. `path` walks one
row of all `feature_dim` values.

Split search is exhaustive: every feature, every midpoint between
consecutive distinct sorted values. Each feature is scored for all its
thresholds at once from cumulative class counts over one sort. A float
score screens the candidates; those within a few ulp of the best are
then compared exactly by integer cross-multiplication, so tie-breaking
(lowest impurity, then lowest feature, then lowest threshold) is
reproducible across platforms.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from collections.abc import Iterator, Sequence

import numpy as np


# the row of an id that pruning spliced out
HOLE = (-1, 0.0, -1, -1, -1, 0, -1)


class DecisionTree:
    """Binary threshold tree routing with x[feature] <= threshold going
    left, held as parallel arrays indexed by node id, as in scikit-learn's
    `Tree`. They are `array.array`s of int64 (code "q"), and of float64
    ("d") for `threshold`: every read of them is of one node, which an
    `array.array` builds and indexes without numpy's per-call cost.

    At an internal node `feature` is the split feature, `threshold` its
    value and `left`, `right` the children; `label` is -1. At a leaf
    `feature`, `left` and `right` are -1 and `label` is its cluster in
    [0, k). `count` is the training rows reaching a node and `depth` its
    depth. An id that pruning splices out stays as a hole, with depth -1;
    `ids()` lists the others.

    `path` and `route` are the only walks that route rows; every other
    traversal of instances through the tree is built on them.
    """

    def __init__(self, rows: Sequence[Sequence], root: int, k: int,
                 feature_dim: int):
        """`rows[i]` is node i's (feature, threshold, left, right, label,
        count, depth), or `HOLE`."""
        feature, threshold, left, right, label, count, depth = zip(*rows)
        self.feature = array("q", feature)
        self.threshold = array("d", threshold)
        self.left = array("q", left)
        self.right = array("q", right)
        self.label = array("q", label)
        self.count = array("q", count)
        self.depth = array("q", depth)
        self.root = root
        self.k = k
        self.feature_dim = feature_dim

    def ids(self) -> list[int]:
        """The ids of the tree's nodes, ascending, holes left out."""
        return [i for i, depth in enumerate(self.depth) if depth >= 0]

    @property
    def n_nodes(self) -> int:
        return len(self.ids())

    def max_depth(self) -> int:
        return max(self.depth)

    def path(self, x: np.ndarray | Sequence[float]) -> Iterator[int]:
        """Node ids one row visits, from the root to a leaf.

        `x` is indexed by global feature: a 1-D array, or a memoryview of
        one, whose items compare as Python floats and so faster.
        """
        node_id = self.root
        while True:
            yield node_id
            feature = self.feature[node_id]
            if feature < 0:
                return
            if x[feature] <= self.threshold[node_id]:
                node_id = self.left[node_id]
            else:
                node_id = self.right[node_id]

    def route(self, views,
              start: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(node_id, rows) for every node at least one row reaches.

        `views` is one (n, feature_dim) matrix, or a sequence of 2-D views
        of n rows each whose widths sum to `feature_dim`. A call maps each
        split's global feature to its column of the views once, with
        `feature_attribution`, the first time a split on it is reached; a
        split then gathers its column's values at the rows reaching it, so
        the views are read in place and never concatenated. `rows` are
        ascending row indices; empty branches are skipped.
        """
        views = [views] if isinstance(views, np.ndarray) else views
        n, offsets = self._layout(views)
        columns: dict[int, np.ndarray] = {}
        stack = [(self.root if start is None else start, np.arange(n))]
        while stack:
            node_id, rows = stack.pop()
            if len(rows) == 0:
                continue
            yield node_id, rows
            feature = self.feature[node_id]
            if feature >= 0:
                column = columns.get(feature)
                if column is None:
                    v, c = feature_attribution(feature, offsets)
                    column = columns[feature] = views[v][:, c]
                go_left = column[rows] <= self.threshold[node_id]
                # several times faster than a boolean index on masks that
                # switch often
                stack.append((self.left[node_id], rows.compress(go_left)))
                stack.append((self.right[node_id], rows.compress(~go_left)))

    def _layout(self, views: Sequence[np.ndarray]) -> tuple[int, list[int]]:
        """The views' common row count and column offsets; their widths
        must sum to `feature_dim`."""
        widths = [view.shape[1] for view in views]
        if sum(widths) != self.feature_dim:
            raise ValueError(
                f"views have {sum(widths)} features, expected {self.feature_dim}"
            )
        return (views[0].shape[0],
                list(itertools.accumulate(widths[:-1], initial=0)))

    def predict_batch(self, X: np.ndarray, start: int | None = None) -> np.ndarray:
        """Leaf labels of the rows of the (n, feature_dim) matrix X,
        descending from `start`; `route` checks X's width."""
        return self.predict_views([X], start)

    def predict_views(self, views: Sequence[np.ndarray],
                      start: int | None = None) -> np.ndarray:
        """Leaf labels of the rows of the views, read in place as `route`
        reads them, descending from `start`."""
        out = np.empty(views[0].shape[0], dtype=np.int64)
        for node_id, rows in self.route(views, start):
            if self.feature[node_id] < 0:
                out[rows] = self.label[node_id]
        return out


def feature_attribution(feature: int, view_offsets: list[int]) -> tuple[int, int]:
    """Map a global feature index to (0-based view, index within view)."""
    view = bisect.bisect_right(view_offsets, feature) - 1
    return view, int(feature - view_offsets[view])


def gini(labels) -> float:
    """Gini impurity 1 - sum p_i^2 of a non-empty label multiset."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("gini of an empty set is undefined")
    counts = np.bincount(labels)
    p = counts / labels.size
    return float(1.0 - np.sum(p * p))


def split_gini(X: np.ndarray, labels, sf: int, sv: float) -> float:
    """Size-weighted child impurity of the split x[sf] <= sv."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot score a split on zero instances")
    go_left = X[:, sf] <= sv
    n = labels.size
    score = 0.0
    for mask in (go_left, ~go_left):
        if np.any(mask):
            score += (mask.sum() / n) * gini(labels[mask])
    return score


# Float scores within this many ulp of the best are settled exactly; the
# float score a/nL + b/nR is within about 2 ulp of the exact one.
_SCREEN_ULP = 16


def best_split(X: np.ndarray, labels: np.ndarray) -> tuple[int, float] | None:
    """Exhaustive minimum-Gini split; None when no feature separates.

    Minimizing the size-weighted Gini impurity is maximizing
    a/nL + b/nR, where a and b are the sums of squared class counts on
    each side. Ties resolve to the lowest feature index, then the lowest
    threshold. Working memory is O(n·k) for n rows and k classes.
    """
    n, d = X.shape
    if n < 2:
        return None
    k = int(labels.max()) + 1
    onehot = np.eye(k, dtype=np.int64)[labels]
    total = onehot.sum(axis=0)
    n_left = np.arange(1, n, dtype=np.int64)
    n_right = n - n_left

    # (screen score, feature, a, b, nL, threshold), in (feature, threshold) order
    kept: list[tuple[float, int, int, int, int, float]] = []
    top = -np.inf
    for sf in range(d):
        order = np.argsort(X[:, sf], kind="stable")
        xs = X[order, sf]
        left = np.cumsum(onehot[order[:-1]], axis=0)       # (n - 1, k)
        right = total - left
        a = np.einsum("ij,ij->i", left, left)
        b = np.einsum("ij,ij->i", right, right)
        score = a / n_left + b / n_right
        score[xs[1:] == xs[:-1]] = -np.inf                 # no threshold between
        feature_top = float(score.max())
        if feature_top == -np.inf:
            continue
        top = max(top, feature_top)
        for i in np.flatnonzero(score >= top - _SCREEN_ULP * np.spacing(top)):
            kept.append((float(score[i]), sf, int(a[i]), int(b[i]), int(i) + 1,
                         float((xs[i] + xs[i + 1]) / 2.0)))
    if top == -np.inf:
        return None

    # a/nL + b/nR = (a*nR + b*nL) / (nL*nR); compared in Python ints, which
    # do not overflow where int64 cross-products would.
    cut = top - _SCREEN_ULP * np.spacing(top)
    best = None
    for f, sf, a, b, nl, sv in kept:
        if f < cut:
            continue
        num, den = a * (n - nl) + b * nl, nl * (n - nl)
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, sf, sv)
    return best[2], best[3]


def _majority(labels: np.ndarray) -> int:
    # ties resolve to the smallest cluster index
    return int(np.argmax(np.bincount(labels)))


def build_tree(X: np.ndarray, Y: np.ndarray, max_depth: int, min_num: int,
               k: int) -> DecisionTree:
    """CART growth guided by pseudo-labels in [0, k).

    A node becomes a leaf when it holds fewer than min_num instances,
    sits at max_depth, is label-pure, or admits no separating split.
    Node ids are in preorder, left subtree first. Growth keeps its own
    stack of pending nodes, so Python's recursion limit does not bound
    the depth.
    """
    rows: list[list] = []           # indexed by node id, filled in preorder
    # (rows reaching a node, its depth, its parent's row, and the field of
    # that row that takes the node's id: 2 for left, 3 for right)
    stack = [(np.arange(X.shape[0]), 0, None, 0)]
    while stack:
        idx, depth, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(rows)
        sub_y = Y[idx]
        split = None
        if (len(idx) >= min_num and depth < max_depth
                and np.unique(sub_y).size > 1):
            split = best_split(X[idx], sub_y)
        if split is None:
            rows.append([-1, 0.0, -1, -1, _majority(sub_y), len(idx), depth])
            continue
        sf, sv = split
        go_left = X[idx, sf] <= sv
        row = [sf, sv, -1, -1, -1, len(idx), depth]
        rows.append(row)
        # the left child is popped, and so numbered, first
        stack.append((idx[~go_left], depth + 1, row, 3))
        stack.append((idx[go_left], depth + 1, row, 2))
    return DecisionTree(rows, root=0, k=k, feature_dim=X.shape[1])
