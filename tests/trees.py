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
    """Label of the leaf that the scalar walk `path` takes row x to."""
    *_, leaf = tree.path(np.asarray(x, dtype=np.float64), start)
    return int(tree.label[leaf])


def internal_ids(tree):
    """Ids of the tree's internal nodes, ascending."""
    return [i for i in tree.ids() if tree.feature[i] >= 0]


def leaf_labels(tree):
    """Label of every leaf, by id."""
    return {i: int(tree.label[i]) for i in tree.ids() if tree.feature[i] < 0}
