"""Seeded k-means: k-means++ initialization plus Lloyd iterations.

Used on the concatenated embeddings to produce pseudo-labels. Fully
deterministic for a fixed seed; restarts are ranked by (sse, restart).

The restarts of one `kmeans` call run concurrently, on a thread pool
sized to the usable CPUs. Each worker runs its block of restarts in
order; their distances, SSE and seeding distances all go through one
(n, d) scratch buffer per worker, which the calling thread allocates
before any work starts, so that worker threads do not grow malloc arenas
of their own for them. Every restart draws from its own seeded stream and
the results are ranked in restart order, so the result does not depend
on the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


@dataclass
class KMeansResult:
    labels: np.ndarray          # (n,) ints in [0, k)
    centers: np.ndarray         # (k, d)
    sse: float
    iterations: int
    sse_history: list[float] = field(default_factory=list)


def _sq_dists(Z: np.ndarray, centers: np.ndarray,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """(n, k) squared distances, one center at a time through one (n, d) buffer."""
    d2 = np.empty((Z.shape[0], centers.shape[0]))
    diff = np.empty_like(Z) if scratch is None else scratch
    for j, center in enumerate(centers):
        np.subtract(Z, center, out=diff)
        diff *= diff
        np.sum(diff, axis=1, out=d2[:, j])
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


def kmeanspp_init(Z: np.ndarray, k: int, seed,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Pick k distinct rows of Z by the k-means++ D^2 sampling rule.

    The seed may be an int, a seed sequence or a Generator; the sampling
    stream is one uniform draw per center (inverse-CDF over cumulative
    D^2 mass), so an oracle with the same stream reproduces the choice.
    `scratch`, an array shaped like Z, is overwritten; one is allocated
    when it is None.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if k > n:
        raise ValueError(f"cannot pick {k} centers from {n} points")
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if scratch is None:
        scratch = np.empty_like(Z)
    dist = np.empty(n)

    def sq_dist_to(row: int) -> np.ndarray:
        np.subtract(Z, Z[row], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        return np.sum(scratch, axis=1, out=dist)

    chosen = [int(rng.integers(n))]
    d2 = sq_dist_to(chosen[0]).copy()
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
        np.minimum(d2, sq_dist_to(idx), out=d2)
    return Z[chosen].copy()


def lloyd(Z: np.ndarray, init_centers: np.ndarray, max_iter: int = 300,
          tol: float = 1e-4, scratch: np.ndarray | None = None) -> KMeansResult:
    """Alternate assignment/update until the max center shift drops below tol.

    Distance ties assign to the lowest cluster index. An empty cluster is
    re-seeded at the point farthest from its own center among the points
    whose cluster has another member, so no cluster is left empty even
    when Z has fewer distinct rows than k. `scratch`, an array shaped like
    Z, is overwritten; one is allocated when it is None.
    """
    Z = np.asarray(Z, dtype=np.float64)
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not np.all(np.isfinite(centers)):
        raise ValueError("initial centers must be finite")
    k = centers.shape[0]
    n = Z.shape[0]
    if k > n:
        raise ValueError(f"cannot fit {k} clusters to {n} points")
    if scratch is None:
        scratch = np.empty_like(Z)
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = _sq_dists(Z, centers, scratch)
        labels = np.argmin(d2, axis=1)      # ties -> lowest index
        own = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                shared = np.bincount(labels, minlength=k)[labels] > 1
                far = int(np.argmax(np.where(shared, own, -1.0)))
                centers[j] = Z[far]
                labels[far] = j
                own = np.sum(_residual_sq(Z, centers, labels, scratch), axis=1)
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = Z[labels == j].mean(axis=0)
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        sse = float(np.sum(_residual_sq(Z, centers, labels, scratch)))
        history.append(sse)
        if shift < tol:
            break
    return KMeansResult(labels=labels, centers=centers, sse=history[-1],
                        iterations=iterations, sse_history=history)


def _worker_count(n_restarts: int) -> int:
    """Threads for the restarts: one per usable CPU, at most one per restart."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_restarts))


def _run_restarts(Z: np.ndarray, k: int, seed, restarts: range, max_iter: int,
                  tol: float, scratch: np.ndarray) -> list[KMeansResult]:
    """The given restarts in order, all through one scratch buffer."""
    results = []
    for r in restarts:
        rng = np.random.default_rng([seed, r])
        centers = kmeanspp_init(Z, k, rng, scratch=scratch)
        results.append(lloyd(Z, centers, max_iter=max_iter, tol=tol,
                             scratch=scratch))
    return results


def kmeans(Z: np.ndarray, k: int, seed, n_restarts: int = 10,
           max_iter: int = 300, tol: float = 1e-4) -> KMeansResult:
    """Best of n_restarts seeded runs; winner by (sse, restart index)."""
    Z = np.asarray(Z, dtype=np.float64)
    if k < 1 or k > Z.shape[0]:
        raise ValueError(f"invalid k={k} for {Z.shape[0]} points")
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    workers = _worker_count(n_restarts)
    # worker w runs the w-th contiguous block of restarts; its buffer is
    # allocated here, so that no worker thread allocates one in its own
    # malloc arena
    bounds = [w * n_restarts // workers for w in range(workers + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    scratches = [np.empty_like(Z) for _ in shares]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_restarts, Z, k, seed, share, max_iter, tol,
                               scratch)
                   for share, scratch in zip(shares, scratches)]
        results = [result for future in futures for result in future.result()]
    # min keeps the first of equal sse values: ties go to the lower restart
    return min(results, key=lambda result: result.sse)
