"""nncore's buffer-filling calls with fresh buffers, for tests that keep
one call's result.

In the package every loss_and_grads call fills a workspace lent for the
epoch, and the soft assignment and cross-entropy write into that
workspace's arrays. These helpers allocate the arrays for one call, so
what they return belongs to the caller.
"""

import numpy as np

from imvc import nncore


def loss_and_grads(ae, X, yind=None, centers=None, lam=0.0):
    """`ae.loss_and_grads` through a Workspace built for this call."""
    ws = nncore.Workspace(ae, np.shape(X)[0],
                          nncore.center_count(yind, centers, lam))
    return ae.loss_and_grads(X, yind, centers, lam, ws)


def soft_assignment(Z, centers):
    """`nncore.soft_assignment` into new arrays."""
    Z = np.asarray(Z, dtype=np.float64)
    n, k = Z.shape[0], np.shape(centers)[0]
    return nncore.soft_assignment(Z, centers, np.empty((n, k)),
                                  np.empty((n, k)), np.empty_like(Z),
                                  np.empty((n, 1)))


def cross_entropy_loss(yind, s):
    """`nncore.cross_entropy_loss` through a new scratch array."""
    return nncore.cross_entropy_loss(yind, s, np.empty(np.shape(s)))
