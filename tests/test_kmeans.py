import itertools
import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imvc import kmeans as kmeans_mod
from imvc import parallel
from imvc.kmeans import KMeansResult, kmeans, kmeanspp_init, lloyd, sq_dists


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
            np.testing.assert_array_equal(sq_dists(Z, centers,
                                                   np.empty_like(Z)),
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(10, 79), st.integers(2, 4),
           st.integers(-40, 40))
    def test_equivariant_under_power_of_two_scaling(self, seed, n, k, j):
        # scaling by 2**j is exact in every sum, mean and comparison that
        # k-means++ and Lloyd make, so the fit scales bit for bit
        Z = np.random.default_rng(seed).standard_normal((n, 3))
        want = kmeans(Z, k, seed)
        got = kmeans(np.ldexp(Z, j), k, seed)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.iterations == want.iterations
        assert got.centers.tobytes() == np.ldexp(want.centers, j).tobytes()
        assert got.sse_history == [float(np.ldexp(sse, 2 * j))
                                   for sse in want.sse_history]


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


# ---------------------------------------------------------------------------
# Sequential k-means as it was before the restarts ran concurrently through
# scratch buffers: every intermediate is a fresh array. The concurrent
# `kmeans` must reproduce it bit for bit.

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


def reference_lloyd(Z, init_centers):
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    k = centers.shape[0]
    n = Z.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history = []
    iterations = 0
    for _ in range(300):
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
        # Lloyd's fixed point: the update moves no center
        fixed = bool((new_centers == centers).all())
        centers = new_centers
        sse = float(np.sum((Z - centers[labels]) ** 2))
        history.append(sse)
        if fixed:
            break
    assert iterations == len(history)
    return KMeansResult(labels=labels, centers=centers, sse_history=history)


def reference_kmeans(Z, k, seed):
    Z = np.asarray(Z, dtype=np.float64)
    best = None
    for r in range(10):
        rng = np.random.default_rng([seed, r])
        centers = reference_kmeanspp_init(Z, k, rng)
        result = reference_lloyd(Z, centers)
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
    with mock.patch.object(parallel, "usable_cpus", lambda: workers):
        return kmeans(*args, **kwargs)


@st.composite
def tied_problems(draw):
    """Small inputs on a coarse grid: duplicate rows and distance ties."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    d = draw(st.integers(1, 3))
    grid = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    # each grid row once to three times, adjacent copies
    copies = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    Z = 0.5 * np.repeat(np.asarray(grid, dtype=np.float64), copies, axis=0)
    seed = draw(st.integers(0, 2**16))
    workers = draw(st.integers(1, 6))
    return Z, k, seed, workers


def blobs(n, d, k, seed):
    rng = np.random.default_rng(seed)
    means = 0.5 * rng.standard_normal((k, d))
    return means[rng.integers(k, size=n)] + rng.standard_normal((n, d))


class TestConcurrentRestartsOracle:
    @settings(max_examples=150, deadline=None)
    @given(tied_problems())
    def test_bitwise_equal_to_sequential_reference(self, problem):
        Z, k, seed, workers = problem
        try:
            want = reference_kmeans(Z, k, seed)
        except ReseedRuleChanged:
            assume(False)
        got = kmeans_with_workers(workers, Z, k, seed)
        assert_same_result(got, want)

    def test_fit_large_shape_bitwise_equal(self):
        Z = blobs(4000, 192, 4, seed=3)
        assert_same_result(kmeans(Z, 4, seed=[11, 300, 0]),
                           reference_kmeans(Z, 4, [11, 300, 0]))

    def test_more_workers_than_cores_under_fast_switching(self):
        Z = blobs(400, 24, 5, seed=8)
        want = reference_kmeans(Z, 5, 21)
        workers = 2 * (os.cpu_count() or 1) + 3
        interval = sys.getswitchinterval()
        outer = ThreadPoolExecutor(max_workers=1)
        sys.setswitchinterval(1e-6)
        try:
            got = outer.submit(kmeans_with_workers, workers, Z, 5,
                               21).result(timeout=120)
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
        kmeans(blobs(50, 3, 2, seed=1), 2, seed=0)
        assert len(calls) == kmeans_mod.N_RESTARTS

    def test_warning_in_a_worker_reaches_the_caller(self, monkeypatch):
        def warning_init(*args, **kwargs):
            warnings.warn("from a worker", RuntimeWarning)

        monkeypatch.setattr(kmeans_mod, "kmeanspp_init", warning_init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="from a worker"):
                kmeans(np.zeros((4, 2)), 2, seed=0)

    def test_a_restart_holds_one_scratch_buffer_at_a_time(self):
        # a second live (n, d) buffer would add 1.0 x Z.nbytes to the peak
        Z = blobs(2000, 64, 4, seed=5)
        tracemalloc.start()
        try:
            kmeans_with_workers(1, Z, 4, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * Z.nbytes

    def test_callers_error_state_holds_in_the_workers(self):
        Z = 1e200 * np.random.default_rng(0).standard_normal((20, 3))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                kmeans_with_workers(2, Z, 2, seed=0)


# ---------------------------------------------------------------------------
# Lloyd's assignment screen. Each move is (scale, offset) applied to a
# problem: a 2**20 offset leaves a margin wider than some of the grid's
# gaps; at a 2**26 offset the screen's own rounding exceeds many gaps, so
# a screen trusted without its margin mislabels rows; at 2**-600 the
# screen's products underflow to zero; on a 2**512 offset its norms
# overflow, though the exact distances, taken on differences of about
# 2**500, do not.
SCREEN_MOVES = {
    "offset-2**20": (1.0, 2.0**20),
    "offset-2**26": (1.0, 2.0**26),
    "scale-2**-600": (2.0**-600, 0.0),
    "scale-2**500-offset-2**512": (2.0**500, 2.0**512),
}


def count_settled(Z, k, seed, workers):
    """kmeans_with_workers(workers, Z, k, seed), and the rows its Lloyd
    assignment steps labelled and those they settled with `sq_dists`
    (k-means++ passes Z itself, a settle step the rows it gathers)."""
    counts = {"labelled": 0, "settled": 0}
    lock = threading.Lock()         # the restarts run on worker threads
    real_sq_dists, real_lloyd = kmeans_mod.sq_dists, kmeans_mod.lloyd

    def sq_dists_spy(rows, centers, scratch, out=None):
        if rows is not Z:
            with lock:
                counts["settled"] += rows.shape[0]
        return real_sq_dists(rows, centers, scratch, out)

    def lloyd_spy(rows, init_centers):
        result = real_lloyd(rows, init_centers)
        with lock:
            counts["labelled"] += rows.shape[0] * result.iterations
        return result

    with mock.patch.object(kmeans_mod, "sq_dists", sq_dists_spy), \
            mock.patch.object(kmeans_mod, "lloyd", lloyd_spy):
        result = kmeans_with_workers(workers, Z, k, seed)
    return result, counts


@st.composite
def unscreenable_problems(draw):
    """tied_problems moved by one of SCREEN_MOVES."""
    Z, k, seed, workers = draw(tied_problems())
    scale, offset = SCREEN_MOVES[draw(st.sampled_from(sorted(SCREEN_MOVES)))]
    return Z * scale + offset, k, seed, workers


def overflow_problem():
    """A grid problem on the 2**512 offset, whose screen overflows."""
    grid = np.random.default_rng(3).integers(0, 4, size=(30, 2))
    scale, offset = SCREEN_MOVES["scale-2**500-offset-2**512"]
    return 0.5 * grid * scale + offset, 3, 17


class TestAssignmentScreenOracle:
    @settings(max_examples=150, deadline=None)
    @given(unscreenable_problems())
    def test_settled_rows_bitwise_equal_to_sequential_reference(self, problem):
        Z, k, seed, workers = problem
        try:
            want = reference_kmeans(Z, k, seed)
        except ReseedRuleChanged:
            assume(False)
        got, counts = count_settled(Z, k, seed, workers)
        assert_same_result(got, want)
        assert counts["settled"] <= counts["labelled"]

    @pytest.mark.parametrize("move, settled", [
        ("none", "none"), ("offset-2**20", "some"), ("offset-2**26", "all"),
        ("scale-2**-600", "all"), ("scale-2**500-offset-2**512", "all")])
    def test_screen_and_settle_both_label_rows(self, move, settled):
        # k = 2: at 2**-600 every distance is zero, and a third center would
        # be re-seeded by the rule the reference does not share
        scale, offset = SCREEN_MOVES.get(move, (1.0, 0.0))
        Z = blobs(300, 4, 3, seed=2) * scale + offset
        got, counts = count_settled(Z, 2, 5, 2)
        assert_same_result(got, reference_kmeans(Z, 2, 5))
        share = counts["settled"] / counts["labelled"]
        if settled == "some":
            assert 0.0 < share < 1.0
        else:
            assert share == {"none": 0.0, "all": 1.0}[settled]

    def test_screen_keeps_its_floating_point_state_to_itself(self):
        # the screen's norms overflow; the settle, the update and the SSE
        # run in the caller's raising state and meet nothing to raise
        Z, k, seed = overflow_problem()
        want = reference_kmeans(Z, k, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got, counts = count_settled(Z, k, seed, 2)
        assert_same_result(got, want)
        assert counts["settled"] == counts["labelled"]

    def test_rows_with_a_non_finite_screen_are_settled(self):
        # -2 z.c overflows to -inf for the far center c = Z[2], so the first
        # two rows screen it as nearest by an infinite gap, while their
        # margin, 48 u (|z| + max |c|)^2 taken left to right, stays finite;
        # their exact distance to it is about 2**1021, to Z[1] at most 1
        Z = np.array([[2.0**511.2, 0.0], [2.0**511.2, 1.0], [2.0**511.9, 0.0]])
        got = lloyd(Z, Z[[1, 2]])
        assert_same_result(got, reference_lloyd(Z, Z[[1, 2]]))
        assert list(got.labels) == [0, 0, 1]

    def test_settle_keeps_the_callers_error_state(self):
        # the middle row ties, so it is settled, and its distance to the
        # second center underflows in a square; no row's distance to its
        # own center does, so only the settle can raise
        tiny = 2.0**-600
        Z = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, tiny],
                      [1.0, tiny]])
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                lloyd(Z, Z[[0, 3]])
        assert_same_result(lloyd(Z, Z[[0, 3]]), reference_lloyd(Z, Z[[0, 3]]))
