"""Seeded k-means: k-means++ initialization plus Lloyd iterations.

Used on the concatenated embeddings to produce pseudo-labels. Fully
deterministic for a fixed seed; restarts are ranked by (sse, restart).

The restarts of one `kmeans` call run concurrently, as one-step jobs on
`parallel.run`'s scheduler with a worker per usable CPU: a worker that
finishes a short restart takes the next one from the queue, so unequal
restarts still keep every worker busy. A restart is
`lloyd(Z, kmeanspp_init(...))`, and each of the two allocates the one
(n, d) scratch buffer its distances go through; the seeding buffer is
freed when `kmeanspp_init` returns, before `lloyd` allocates its own, so
at most one buffer per running restart exists.
Every restart draws from its own seeded stream and the results are
ranked in restart order, so the result does not depend on the number of
workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel

MAX_ITER = 300      # only a cap: a run stops at Lloyd's fixed point
N_RESTARTS = 10


@dataclass
class KMeansResult:
    labels: np.ndarray          # (n,) ints in [0, k)
    centers: np.ndarray         # (k, d)
    sse_history: list[float]    # the SSE after each Lloyd iteration

    @property
    def sse(self) -> float:
        return self.sse_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.sse_history)


def sq_dists(Z: np.ndarray, centers: np.ndarray, scratch: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """(n, k) squared distances of Z's rows to the k centers, written into
    `out`, or a new array when it is None; taken one center at a time
    through `scratch`, an array shaped like Z."""
    d2 = np.empty((Z.shape[0], centers.shape[0])) if out is None else out
    for j, center in enumerate(centers):
        np.subtract(Z, center, out=scratch)
        scratch *= scratch
        np.sum(scratch, axis=1, out=d2[:, j])
    return d2


def _residual_sq(Z: np.ndarray, centers: np.ndarray, labels: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """(Z - centers[labels]) ** 2, written into scratch."""
    # labels are in [0, k); "clip" writes straight into out, where the
    # default mode would first take a copy
    np.take(centers, labels, axis=0, out=scratch, mode="clip")
    np.subtract(Z, scratch, out=scratch)
    scratch *= scratch
    return scratch


def kmeanspp_init(Z: np.ndarray, k: int, seed) -> np.ndarray:
    """Pick k distinct rows of Z by the k-means++ D^2 sampling rule.

    The seed is anything `np.random.default_rng` takes, a Generator
    included, which it returns unchanged. The sampling stream is one
    uniform draw per center (inverse-CDF over cumulative D^2 mass), so an
    oracle with the same stream reproduces the choice.
    """
    n = Z.shape[0]
    rng = np.random.default_rng(seed)
    scratch = np.empty_like(Z)
    dist = np.empty((n, 1))
    chosen = [int(rng.integers(n))]
    d2 = sq_dists(Z, Z[chosen], scratch)[:, 0]
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
        np.minimum(d2, sq_dists(Z, Z[[idx]], scratch, dist)[:, 0], out=d2)
    return Z[chosen].copy()


def lloyd(Z: np.ndarray, init_centers: np.ndarray) -> KMeansResult:
    """Alternate assignment/update until an update leaves every center
    bit-identical (Lloyd's fixed point: no tolerance, so the run is exact
    under any power-of-two scaling of Z), at most MAX_ITER times.

    Distance ties assign to the lowest cluster index. An empty cluster is
    re-seeded at the point farthest from its own center among the points
    whose cluster has another member, so no cluster is left empty even
    when Z has fewer distinct rows than k.
    """
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(centers)):
        raise ValueError("initial centers must be finite")
    k = centers.shape[0]
    n = Z.shape[0]
    scratch = np.empty_like(Z)
    history: list[float] = []
    for _ in range(MAX_ITER):
        d2 = sq_dists(Z, centers, scratch)
        labels = np.argmin(d2, axis=1)      # ties -> lowest index
        own = d2[np.arange(n), labels]
        # a re-seed takes its row from a cluster with another member, so it
        # never empties a cluster later in this loop
        for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            shared = np.bincount(labels, minlength=k)[labels] > 1
            far = int(np.argmax(np.where(shared, own, -1.0)))
            centers[j] = Z[far]
            labels[far] = j
            own = np.sum(_residual_sq(Z, centers, labels, scratch), axis=1)
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = Z[labels == j].mean(axis=0)
        fixed = np.array_equal(new_centers, centers)
        centers = new_centers
        sse = float(np.sum(_residual_sq(Z, centers, labels, scratch)))
        history.append(sse)
        if fixed:
            break
    return KMeansResult(labels=labels, centers=centers, sse_history=history)


def kmeans(Z: np.ndarray, k: int, seed) -> KMeansResult:
    """Best of N_RESTARTS seeded runs; winner by (sse, restart index)."""
    results = parallel.run(
        [parallel.once(lambda r: lloyd(Z, kmeanspp_init(Z, k, [seed, r])), r)
         for r in range(N_RESTARTS)],
        parallel.usable_cpus())
    # min keeps the first of equal sse values: ties go to the lower restart
    return min(results, key=lambda result: result.sse)
