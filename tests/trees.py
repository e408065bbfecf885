"""Trees for tests: built from a compact spec, and walked one row at a time.

    make_tree({0: (0, 0.5, 1, 2), 1: 0, 2: 1}, k=2, feature_dim=1)

is the stump x[0] <= 0.5 with leaf 1 labelled 0 and leaf 2 labelled 1.
"""

import numpy as np

from imvc.dtree import HOLE, DecisionTree


def make_tree(nodes, k, feature_dim, root=0):
    """The tree whose node ids map to a leaf label or to an internal
    node's (feature, threshold, left, right). Depths come from the walk
    from `root`, counts are 0, and ids the walk misses are holes."""
    rows = [HOLE] * (max(nodes) + 1)
    stack = [(root, 0)]
    while stack:
        node_id, depth = stack.pop()
        spec = nodes[node_id]
        if isinstance(spec, tuple):
            feature, threshold, left, right = spec
            rows[node_id] = (feature, threshold, left, right, -1, 0, depth)
            stack += [(left, depth + 1), (right, depth + 1)]
        else:
            rows[node_id] = (-1, 0.0, -1, -1, spec, 0, depth)
    return DecisionTree(rows, root=root, k=k, feature_dim=feature_dim)


def leaf_label(tree, x, start=None):
    """Label of the leaf that row x reaches from `start` (default: the
    root), walked one node at a time over the tree's arrays: the scalar
    oracle for `predict_batch` and `route`."""
    x = np.asarray(x, dtype=np.float64)
    node_id = tree.root if start is None else start
    while tree.feature[node_id] >= 0:
        if x[tree.feature[node_id]] <= tree.threshold[node_id]:
            node_id = tree.left[node_id]
        else:
            node_id = tree.right[node_id]
    return int(tree.label[node_id])


def internal_ids(tree):
    """Ids of the tree's internal nodes, ascending."""
    return [i for i in tree.ids() if tree.feature[i] >= 0]


def leaf_labels(tree):
    """Label of every leaf, by id."""
    return {i: int(tree.label[i]) for i in tree.ids() if tree.feature[i] < 0}
