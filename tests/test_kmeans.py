import itertools

import numpy as np
import pytest

from imvc.kmeans import _sq_dists, kmeans, kmeanspp_init, lloyd


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
