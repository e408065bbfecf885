"""Seeded k-means: k-means++ initialization plus Lloyd iterations.

Used on the concatenated embeddings to produce pseudo-labels. Fully
deterministic for a fixed seed; restarts are ranked by (sse, restart).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KMeansResult:
    labels: np.ndarray          # (n,) ints in [0, k)
    centers: np.ndarray         # (k, d)
    sse: float
    iterations: int
    sse_history: list[float] = field(default_factory=list)


def _sq_dists(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one center at a time through one (n, d) buffer."""
    d2 = np.empty((Z.shape[0], centers.shape[0]))
    diff = np.empty_like(Z)
    for j, center in enumerate(centers):
        np.subtract(Z, center, out=diff)
        diff *= diff
        np.sum(diff, axis=1, out=d2[:, j])
    return d2


def kmeanspp_init(Z: np.ndarray, k: int, seed) -> np.ndarray:
    """Pick k distinct rows of Z by the k-means++ D^2 sampling rule.

    The seed may be an int, a seed sequence or a Generator; the sampling
    stream is one uniform draw per center (inverse-CDF over cumulative
    D^2 mass), so an oracle with the same stream reproduces the choice.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if k > n:
        raise ValueError(f"cannot pick {k} centers from {n} points")
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # remaining mass is zero (duplicates of chosen points): uniform
            # over the not-yet-chosen indices
            avail = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(avail[rng.integers(len(avail))])
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((Z - Z[idx]) ** 2, axis=1))
    return Z[chosen].copy()


def lloyd(Z: np.ndarray, init_centers: np.ndarray, max_iter: int = 300,
          tol: float = 1e-4) -> KMeansResult:
    """Alternate assignment/update until the max center shift drops below tol.

    Distance ties assign to the lowest cluster index. An empty cluster is
    re-seeded at the point currently farthest from its own center.
    """
    Z = np.asarray(Z, dtype=np.float64)
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not np.all(np.isfinite(centers)):
        raise ValueError("initial centers must be finite")
    k = centers.shape[0]
    n = Z.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = _sq_dists(Z, centers)
        labels = np.argmin(d2, axis=1)      # ties -> lowest index
        own = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                far = int(np.argmax(own))
                centers[j] = Z[far]
                labels[far] = j
                own = np.sum((Z - centers[labels]) ** 2, axis=1)
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = Z[labels == j].mean(axis=0)
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        sse = float(np.sum((Z - centers[labels]) ** 2))
        history.append(sse)
        if shift < tol:
            break
    return KMeansResult(labels=labels, centers=centers, sse=history[-1],
                        iterations=iterations, sse_history=history)


def kmeans(Z: np.ndarray, k: int, seed, n_restarts: int = 10,
           max_iter: int = 300, tol: float = 1e-4) -> KMeansResult:
    """Best of n_restarts seeded runs; winner by (sse, restart index)."""
    Z = np.asarray(Z, dtype=np.float64)
    if k < 1 or k > Z.shape[0]:
        raise ValueError(f"invalid k={k} for {Z.shape[0]} points")
    best: KMeansResult | None = None
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        centers = kmeanspp_init(Z, k, rng)
        result = lloyd(Z, centers, max_iter=max_iter, tol=tol)
        if best is None or result.sse < best.sse:
            best = result
    assert best is not None
    return best
