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
at most one buffer per running restart exists. Lloyd's settle step
gathers the rows its screen cannot decide into one more array, as large
as Z only when no row is decided.
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


def _assign(Z: np.ndarray, centers: np.ndarray, znorm: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Each row's nearest center by `sq_dists`, ties to the lowest index.

    One matmul screens the rows by |c|^2 - 2 z.c; a row whose runner-up
    is further than the rounding margin keeps the screen's label. The
    others, non-finite screens among them, are settled by `sq_dists` on
    those rows alone, whose bits are those of the full pass. `znorm`
    holds the rows' norms |z|.
    """
    n, d = Z.shape
    rows = np.arange(n)
    with np.errstate(all="ignore"):
        sq_norms = np.einsum("ij,ij->i", centers, centers)
        screen = Z @ centers.T
        screen *= -2.0
        screen += sq_norms
        finite = np.isfinite(screen).all(axis=1)
        labels = np.argmin(screen, axis=1)
        best = screen[rows, labels]
        screen[rows, labels] = np.inf
        gap = screen.min(axis=1) - best
        # each screened and each exact distance is off by at most
        # gamma_{d+3} (|z| + max |c|)^2 in any summation order, gamma_m =
        # m u / (1 - m u), u = 2^-53; the margin is twice the 4 gamma_{d+3}
        # that a gap must beat (for d below 9e7), and 2^-1000 covers
        # subnormal products
        reach = znorm + np.sqrt(sq_norms.max())
        margin = 8 * (d + 4) * 2.0**-53 * reach * reach + 2.0**-1000
        unsure = np.flatnonzero(~(finite & (gap > margin)))
    if unsure.size:
        exact = sq_dists(Z[unsure], centers, scratch[:unsure.size])
        labels[unsure] = np.argmin(exact, axis=1)
    return labels


def lloyd(Z: np.ndarray, init_centers: np.ndarray) -> KMeansResult:
    """Alternate assignment/update until an update leaves every center
    bit-identical (Lloyd's fixed point: no tolerance, so the run is exact
    under any power-of-two scaling of Z), at most MAX_ITER times.

    Rows take their nearest center by exact distance (`_assign`), ties to
    the lowest index. An empty cluster is re-seeded at the point farthest
    from its own center among the points whose cluster has another member,
    so no cluster is left empty even when Z has fewer distinct rows than k.
    """
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(centers)):
        raise ValueError("initial centers must be finite")
    k = centers.shape[0]
    scratch = np.empty_like(Z)
    with np.errstate(all="ignore"):
        znorm = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    history: list[float] = []
    for _ in range(MAX_ITER):
        labels = _assign(Z, centers, znorm, scratch)
        # a re-seed takes its row from a cluster with another member, so it
        # never empties a cluster later in this loop
        for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            # each row's distance to its own center, in sq_dists' bits
            own = np.sum(_residual_sq(Z, centers, labels, scratch), axis=1)
            shared = np.bincount(labels, minlength=k)[labels] > 1
            far = int(np.argmax(np.where(shared, own, -1.0)))
            centers[j] = Z[far]
            labels[far] = j
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
