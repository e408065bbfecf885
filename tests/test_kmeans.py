import itertools
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imvc import kmeans as kmeans_mod
from imvc.kmeans import KMeansResult, _sq_dists, kmeans, kmeanspp_init, lloyd


def brute_force_sse(Z, k):
    """Global optimum by enumerating every assignment (tiny inputs only)."""
    n = Z.shape[0]
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        sse = 0.0
        for j in range(k):
            members = Z[labels == j]
            if len(members):
                sse += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, sse)
    return best


class TestKMeansPP:
    def test_k_equals_n_is_a_permutation(self):
        Z = np.random.default_rng(0).standard_normal((6, 2))
        centers = kmeanspp_init(Z, 6, seed=3)
        found = sorted(tuple(c) for c in centers)
        rows = sorted(tuple(r) for r in Z)
        assert found == rows

    def test_two_far_groups_get_one_center_each(self):
        Z = np.vstack([np.zeros((4, 2)), np.full((4, 2), 100.0)])
        for seed in range(10):
            centers = kmeanspp_init(Z, 2, seed=seed)
            sides = {float(c[0]) for c in centers}
            assert sides == {0.0, 100.0}

    def test_matches_scripted_d2_sampling_oracle(self):
        Z = np.random.default_rng(8).standard_normal((6, 3))
        seed = 123
        centers = kmeanspp_init(Z, 3, seed=seed)

        # hand-rolled sampler drawing from the same RNG stream
        rng = np.random.default_rng(seed)
        first = int(rng.integers(6))
        picked = [first]
        d2 = np.sum((Z - Z[first]) ** 2, axis=1)
        for _ in range(2):
            r = rng.random() * d2.sum()
            acc = 0.0
            for i, w in enumerate(d2):
                acc += w
                if acc > r:
                    picked.append(i)
                    break
            d2 = np.minimum(d2, np.sum((Z - Z[picked[-1]]) ** 2, axis=1))
        np.testing.assert_array_equal(centers, Z[picked])

    def test_too_many_centers_rejected(self):
        with pytest.raises(ValueError):
            kmeanspp_init(np.zeros((3, 2)), 4, seed=0)


class TestLloyd:
    def test_two_pair_clusters(self):
        Z = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        result = lloyd(Z, np.array([[0.0, 0.0], [10.0, 0.0]]))
        np.testing.assert_allclose(sorted(result.centers[:, 0]), [0.0, 10.0])
        np.testing.assert_allclose(result.centers[:, 1], [0.5, 0.5])
        assert result.sse == pytest.approx(1.0)
        np.testing.assert_array_equal(result.labels, [0, 0, 1, 1])

    def test_k1_center_is_mean(self):
        Z = np.random.default_rng(1).standard_normal((7, 3))
        result = lloyd(Z, Z[:1].copy())
        np.testing.assert_allclose(result.centers[0], Z.mean(axis=0))

    def test_data_already_at_centers(self):
        Z = np.array([[0.0, 0.0], [5.0, 5.0]])
        result = lloyd(Z, Z.copy())
        assert result.sse == 0.0
        assert result.iterations == 1

    def test_sse_invariant_consistency(self):
        Z = np.random.default_rng(2).standard_normal((30, 4))
        result = kmeans(Z, 3, seed=5)
        direct = float(np.sum((Z - result.centers[result.labels]) ** 2))
        assert result.sse == pytest.approx(direct, rel=1e-6)
        assert set(np.unique(result.labels)) == {0, 1, 2}

    def test_distances_match_the_two_temporary_formula_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n, d, k in [(1, 1, 1), (50, 3, 4), (600, 192, 3)]:
            Z = 3.7 * rng.standard_normal((n, d))
            centers = rng.standard_normal((k, d))
            diff = Z[:, None, :] - centers[None, :, :]
            np.testing.assert_array_equal(_sq_dists(Z, centers),
                                          np.sum(diff * diff, axis=2))


class TestProperties:
    def test_sse_monotone_over_iterations(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Z = rng.standard_normal((40, 3))
            centers = kmeanspp_init(Z, 4, seed=seed)
            result = lloyd(Z, centers)
            hist = result.sse_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_local_optimum_at_least_brute_force(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, k = 8, 3
            Z = rng.standard_normal((n, 2))
            result = kmeans(Z, k, seed=seed)
            assert result.sse >= brute_force_sse(Z, k) - 1e-9

    def test_labels_invariant_under_translation(self):
        Z = np.random.default_rng(7).standard_normal((25, 3))
        a = kmeans(Z, 3, seed=11)
        b = kmeans(Z + 42.0, 3, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestFewerDistinctRowsThanK:
    @pytest.mark.parametrize("Z, k", [
        (np.ones((20, 4)), 3),
        (np.ones((5, 1)), 5),
        (np.repeat([[0.0, 0.0], [3.0, 1.0]], 6, axis=0), 4),
    ])
    def test_terminates_with_finite_centers(self, Z, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(Z, k, seed=0)
        assert np.all(np.isfinite(result.centers))
        assert result.labels.min() >= 0 and result.labels.max() < k
        assert np.array_equal(np.unique(result.labels), np.arange(k))
        assert result.iterations <= 3

    def test_lloyd_rejects_more_centers_than_points(self):
        with pytest.raises(ValueError):
            lloyd(np.zeros((2, 3)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Sequential k-means as it was before the restarts ran on a thread pool
# through caller-owned buffers: every intermediate is a fresh array. The
# concurrent `kmeans` must reproduce it bit for bit.

class ReseedRuleChanged(Exception):
    """The reference is about to re-seed from a one-member cluster.

    The old rule empties that cluster there (and may then take an empty
    mean); `lloyd` picks a row whose cluster keeps another member, so the
    two differ on such inputs by design.
    """


def reference_sq_dists(Z, centers):
    d2 = np.empty((Z.shape[0], centers.shape[0]))
    diff = np.empty_like(Z)
    for j, center in enumerate(centers):
        np.subtract(Z, center, out=diff)
        diff *= diff
        np.sum(diff, axis=1, out=d2[:, j])
    return d2


def reference_kmeanspp_init(Z, k, rng):
    n = Z.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            avail = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(avail[rng.integers(len(avail))])
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((Z - Z[idx]) ** 2, axis=1))
    return Z[chosen].copy()


def reference_lloyd(Z, init_centers, max_iter=300, tol=1e-4):
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    k = centers.shape[0]
    n = Z.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = reference_sq_dists(Z, centers)
        labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                far = int(np.argmax(own))
                if np.sum(labels == labels[far]) == 1:
                    raise ReseedRuleChanged
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


def reference_kmeans(Z, k, seed, n_restarts=10, max_iter=300, tol=1e-4):
    Z = np.asarray(Z, dtype=np.float64)
    best = None
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        centers = reference_kmeanspp_init(Z, k, rng)
        result = reference_lloyd(Z, centers, max_iter=max_iter, tol=tol)
        if best is None or result.sse < best.sse:
            best = result
    return best


def assert_same_result(got, want):
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.sse == want.sse
    assert got.iterations == want.iterations
    assert got.sse_history == want.sse_history


def kmeans_with_workers(workers, *args, **kwargs):
    with mock.patch.object(kmeans_mod, "_worker_count", lambda n: workers):
        return kmeans(*args, **kwargs)


@st.composite
def tied_problems(draw):
    """Small inputs on a coarse grid: duplicate rows and distance ties."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    d = draw(st.integers(1, 3))
    grid = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    Z = 0.5 * np.asarray(grid, dtype=np.float64)
    seed = draw(st.integers(0, 2**16))
    n_restarts = draw(st.integers(1, 10))
    workers = draw(st.integers(1, 6))
    return Z, k, seed, n_restarts, workers


def blobs(n, d, k, seed):
    rng = np.random.default_rng(seed)
    means = 0.5 * rng.standard_normal((k, d))
    return means[rng.integers(k, size=n)] + rng.standard_normal((n, d))


class TestConcurrentRestartsOracle:
    @settings(max_examples=150, deadline=None)
    @given(tied_problems())
    def test_bitwise_equal_to_sequential_reference(self, problem):
        Z, k, seed, n_restarts, workers = problem
        try:
            want = reference_kmeans(Z, k, seed, n_restarts=n_restarts)
        except ReseedRuleChanged:
            assume(False)
        got = kmeans_with_workers(workers, Z, k, seed, n_restarts=n_restarts)
        assert_same_result(got, want)

    def test_fit_large_shape_bitwise_equal(self):
        Z = blobs(4000, 192, 4, seed=3)
        assert_same_result(kmeans(Z, 4, seed=[11, 300, 0]),
                           reference_kmeans(Z, 4, [11, 300, 0]))

    def test_more_workers_than_cores_under_fast_switching(self):
        Z = blobs(400, 24, 5, seed=8)
        want = reference_kmeans(Z, 5, 21, n_restarts=12)
        workers = 2 * (os.cpu_count() or 1) + 3
        interval = sys.getswitchinterval()
        outer = ThreadPoolExecutor(max_workers=1)
        sys.setswitchinterval(1e-6)
        try:
            got = outer.submit(kmeans_with_workers, workers, Z, 5, 21,
                               n_restarts=12).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            outer.shutdown(wait=False)
        assert_same_result(got, want)

    def test_workers_call_the_module_globals(self, monkeypatch):
        calls = []
        real_lloyd = kmeans_mod.lloyd

        def counting_lloyd(*args, **kwargs):
            calls.append(1)
            return real_lloyd(*args, **kwargs)

        monkeypatch.setattr(kmeans_mod, "lloyd", counting_lloyd)
        kmeans(blobs(50, 3, 2, seed=1), 2, seed=0, n_restarts=7)
        assert len(calls) == 7

    def test_warning_in_a_worker_reaches_the_caller(self, monkeypatch):
        def warning_init(*args, **kwargs):
            warnings.warn("from a worker", RuntimeWarning)

        monkeypatch.setattr(kmeans_mod, "kmeanspp_init", warning_init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="from a worker"):
                kmeans(np.zeros((4, 2)), 2, seed=0)

    def test_worker_count_is_capped_by_restarts(self):
        assert kmeans_mod._worker_count(1) == 1
        assert 1 <= kmeans_mod._worker_count(10) <= 10

    def test_no_restarts_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((4, 2)), 2, seed=0, n_restarts=0)
