"""Golden digests of grown and refined trees.

`build_tree` and `optimize_tree` on seeded data run no autoencoder and no
BLAS call, so the tree documents they give are the same on every machine.
The digests pin those documents byte for byte: a change to how the tree is
stored, grown, refined or written that keeps them keeps the model bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from imvc import data as dataio
from imvc.dtree import build_tree
from imvc.tao import optimize_tree


def doc_digest(tree, offsets) -> str:
    """sha256 of the tree's document, serialized as a model file does."""
    doc = dataio.tree_to_doc(tree, offsets)
    raw = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


def noisy(labels, k, share, rng):
    """`labels` with a random `share` of them replaced by random labels."""
    out = labels.copy()
    flip = rng.random(len(out)) < share
    out[flip] = rng.integers(0, k, size=int(flip.sum()))
    return out


def blobs():
    """Two views of three Gaussian blobs, 180 rows, noisy labels."""
    views, truth = dataio.synth_multiview(60, 3, 2, [3, 4], noise=1.0,
                                          seed=21)
    rng = np.random.default_rng(22)
    return (np.hstack(views), [0, 3], 3, noisy(truth, 3, 0.2, rng),
            noisy(truth, 3, 0.2, rng), 6, 3)


def grid():
    """400 rows of integer features (many ties), four classes."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 8, size=(400, 5)).astype(np.float64)
    truth = ((X[:, 0] + X[:, 1] > 7).astype(np.int64)
             + 2 * (X[:, 2] > 4).astype(np.int64))
    return (X, [0, 2], 4, noisy(truth, 4, 0.25, rng),
            noisy(truth, 4, 0.25, rng), 8, 2)


GOLDEN = {
    ("blobs", "build"):
        "d46facaa6a2d58277b2c965de018892066b91621cc9f3ef5e7219c88b2e2a2b2",
    ("blobs", "optimize"):
        "fcbff0dd027bfd6d41537caf174cb59295dba5a537a65464859602de5931b68a",
    ("grid", "build"):
        "6bc7e573943690d3c035d9d397dc001b0dfc9f33081b73ecbbb28d1faa8ce067",
    # refinement prunes 211 nodes to 203, so the document skips ids
    ("grid", "optimize"):
        "cd84d548be7249b816b912ce1c52aef295aaab4b54f020bfca83bf958aadda2a",
}


@pytest.mark.parametrize("dataset", [blobs, grid], ids=["blobs", "grid"])
def test_tree_documents_match_golden_digests(dataset):
    X, offsets, k, y_build, y_refine, max_depth, min_num = dataset()
    tree = build_tree(X, y_build, max_depth, min_num, k=k)
    built = doc_digest(tree, offsets)
    optimize_tree(tree, X, y_refine)
    refined = doc_digest(tree, offsets)
    name = dataset.__name__
    assert (built, refined) == (GOLDEN[name, "build"],
                                GOLDEN[name, "optimize"])
