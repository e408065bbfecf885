"""Fixed-structure refinement of a fitted decision tree.

One pass visits nodes deepest-level-first: leaves take the majority
pseudo-label of the instances reaching them, internal nodes re-pick
their (feature, threshold) to minimize misrouting of the "care"
instances (those whose final label depends on the left/right choice),
exactly, in O(n log n) time per feature for the n instances at a node.
The pass ends with empty-branch pruning and instance reallocation. A tree
phase runs one pass; a second one could not change the tree (optimize_tree).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .dtree import DecisionTree, _majority

MAX_SELF_LABEL_ITERATIONS = 50  # read only by perfbench/tracer.py


@dataclass(eq=False)
class CareSet:
    """The care instances of one node as parallel arrays; `len` counts them."""
    rows: np.ndarray             # indices into X, in the order of the reach set
    correct_left: np.ndarray     # True where only the left subtree is right

    def __len__(self) -> int:
        return len(self.rows)


def compute_reach(tree: DecisionTree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Instance indices reaching every node under the current parameters.

    Nodes no instance reaches get an empty array.
    """
    reach = {node_id: np.empty(0, dtype=np.int64) for node_id in tree.ids()}
    reach.update(tree.route(X))
    return reach


def relabel_leaf(tree: DecisionTree, leaf_id: int, idx: np.ndarray,
                 Y: np.ndarray) -> bool:
    """Majority pseudo-label; ties to the smallest index; empty set is a no-op."""
    if len(idx) == 0:
        return False
    new = _majority(Y[idx])
    changed = new != tree.label[leaf_id]
    tree.label[leaf_id] = new
    return changed


def care_set(tree: DecisionTree, node_id: int, idx: np.ndarray,
             X: np.ndarray, Y: np.ndarray) -> CareSet:
    """Instances at node_id whose label is right on exactly one side.

    Instances correct on both sides or wrong on both sides cannot be
    affected by this node's split and are excluded.
    """
    if len(idx) == 0:
        return CareSet(rows=idx, correct_left=np.zeros(0, dtype=bool))
    X_idx = X[idx]
    y = Y[idx]
    correct_left = tree.predict_batch(X_idx, start=tree.left[node_id]) == y
    correct_right = tree.predict_batch(X_idx, start=tree.right[node_id]) == y
    care = correct_left != correct_right
    return CareSet(rows=idx[care], correct_left=correct_left[care])


def node_objective(tree: DecisionTree, node_id: int, X: np.ndarray,
                   care: CareSet) -> int:
    """Count of care instances node_id's split routes to their incorrect
    side."""
    goes_left = X[care.rows, tree.feature[node_id]] <= tree.threshold[node_id]
    return int(np.count_nonzero(goes_left != care.correct_left))


def optimize_node(tree: DecisionTree, node_id: int, idx: np.ndarray,
                  X: np.ndarray, Y: np.ndarray) -> bool:
    """Re-pick (sf, sv) over all midpoint candidates on the reaching set.

    The current split is kept unless a candidate is strictly better;
    candidate ties resolve to the lowest misroute count, then lowest
    feature, then lowest threshold. A care row right only on the left is
    misrouted by the thresholds below its value, one right only on the
    right by those at or above it, so the misroutes at every midpoint of
    a feature are two `searchsorted` counts into the sorted care values:
    O(n log n) time per feature and O(n·d) memory for n reaching rows
    and d features.
    """
    care = care_set(tree, node_id, idx, X, Y)
    if not care:
        return False
    current = node_objective(tree, node_id, X, care)
    # one row per feature, each sorted
    xs = np.sort(X[idx].T, axis=1)
    want_left = np.sort(X[care.rows[care.correct_left]].T, axis=1)
    want_right = np.sort(X[care.rows[~care.correct_left]].T, axis=1)

    best_obj = None
    best_sf = -1
    best_sv = 0.0
    for sf in range(X.shape[1]):
        lo, hi = xs[sf, :-1], xs[sf, 1:]
        mids = ((lo + hi) / 2.0)[lo != hi]
        if mids.size == 0:
            continue
        objs = (want_left.shape[1] - want_left[sf].searchsorted(mids, side="right")
                + want_right[sf].searchsorted(mids, side="right"))
        pos = int(objs.argmin())      # lowest threshold wins ties in-feature
        if best_obj is None or objs[pos] < best_obj:
            best_obj = int(objs[pos])
            best_sf = sf
            best_sv = float(mids[pos])
    if best_obj is not None and best_obj < current:
        tree.feature[node_id] = best_sf
        tree.threshold[node_id] = best_sv
        return True
    return False


def tao_pass(tree: DecisionTree, X: np.ndarray, Y: np.ndarray) -> bool:
    """One reverse breadth-first sweep plus pruning/reallocation.

    Returns True when any label, split parameter, or structure changed.
    """
    reach = compute_reach(tree, X)
    depth = tree.depth
    changed = False
    for node_id in sorted(reach, key=lambda i: (-depth[i], i)):
        if tree.feature[node_id] < 0:
            changed |= relabel_leaf(tree, node_id, reach[node_id], Y)
        else:
            changed |= optimize_node(tree, node_id, reach[node_id], X, Y)
    changed |= prune_and_reallocate(tree, X)
    return changed


def prune_and_reallocate(tree: DecisionTree, X: np.ndarray) -> bool:
    """Splice out internal nodes with an empty child; refresh node counts
    and depths. Returns True when the structure changed.

    An internal node whose rows all go one way is replaced by that child,
    which is reached by the same rows. So the reach sets of one routing
    through the unpruned tree are those of the pruned tree, and they give
    the node counts.
    """
    reach = compute_reach(tree, X)
    before = tree.n_nodes
    left, right = tree.left, tree.right

    def kept(node_id: int) -> int:
        """node_id, or the descendant that takes its place."""
        while tree.feature[node_id] >= 0:
            if len(reach[left[node_id]]) == 0:
                node_id = right[node_id]
            elif len(reach[right[node_id]]) == 0:
                node_id = left[node_id]
            else:
                break
        return node_id

    tree.root = kept(tree.root)
    tree.depth = array("q", [-1]) * len(tree.depth)   # ids not reached are holes
    stack = [(tree.root, 0)]
    while stack:
        node_id, depth = stack.pop()
        tree.depth[node_id] = depth
        tree.count[node_id] = len(reach[node_id])
        if tree.feature[node_id] >= 0:
            for child in (tree.left, tree.right):
                child[node_id] = kept(child[node_id])
                stack.append((child[node_id], depth + 1))
    return tree.n_nodes != before


def optimize_tree(tree: DecisionTree, X: np.ndarray, Y) -> None:
    """Refine tree in place by one tao_pass against the pseudo-labels Y. A
    second pass against the tree's own predictions changes nothing: every
    leaf holds its rows' label, every split sends each care row to the one
    child that predicts it, and pruning left no branch empty."""
    tao_pass(tree, X, Y)
