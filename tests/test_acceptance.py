"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end
criteria (7-9) train full models and take a few minutes on a CPU.
"""

import itertools
import time

import numpy as np
import pytest

from imvc import data as dataio
from imvc import pipeline, tao
from imvc.cli import main as cli_main
from imvc.dtree import best_split, build_tree, gini, split_gini
from imvc.kmeans import kmeans, kmeanspp_init, lloyd
from imvc.metrics import clustering_accuracy, hungarian, pairwise_f1, purity
from imvc.nncore import Autoencoder, combined_loss
from imvc.tao import compute_reach, tao_pass

from nets import cross_entropy_loss, loss_and_grads, soft_assignment
from test_nncore import max_rel_error, numeric_gradients
from test_tao import misclassification, toy_three_label_instance
from test_training import training_digest


def report(num, detail=""):
    print(f"[criterion {num}] PASS {detail}")


def test_criterion_1_formula_unit_suite():
    start = time.time()
    assert gini([0, 0, 0]) == 0.0
    assert gini([0, 0, 1, 1]) == 0.5
    assert abs(gini([0, 0, 1]) - 4 / 9) < 1e-9

    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert split_gini(X, [0, 0, 1, 1], 0, 2.5) == 0.0
    assert split_gini(X, [0, 1, 0, 1], 0, 10.0) == gini([0, 1, 0, 1])
    assert split_gini(np.array([[0.0], [0.0], [1.0], [1.0]]),
                      [0, 0, 1, 1], 0, 0.5) == 0.0

    s = soft_assignment(np.zeros((1, 1)), np.array([[0.0]]))
    assert abs(s[0, 0] - 1.0) < 1e-9
    s = soft_assignment(np.array([[0.0, 0.0]]),
                        np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(s, [[0.5, 0.5]], atol=1e-9)
    s = soft_assignment(np.array([[0.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(s, [[2 / 3, 1 / 3]], atol=1e-9)

    assert cross_entropy_loss(np.eye(2), np.eye(2)) == 0.0
    assert abs(cross_entropy_loss([[1.0, 0.0]], [[0.5, 0.5]])
               - np.log(2)) < 1e-9
    assert abs(cross_entropy_loss([[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]])
               - 2 * np.log(2)) < 1e-9
    assert combined_loss(1.0, 2.0, 0.1) == pytest.approx(1.2, abs=1e-9)
    assert combined_loss(7.0, 99.0, 0.0) == 7.0

    assert purity([0, 1, 2], [0, 1, 2]) == 1.0
    assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5
    assert purity([0, 0, 0, 1, 1], [1, 1, 2, 2, 2]) == pytest.approx(0.8)
    assert clustering_accuracy([2, 0, 1], [0, 1, 2]) == 1.0
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert clustering_accuracy([5], [9]) == 1.0
    assert pairwise_f1([0, 1, 0, 1], [0, 1, 0, 1]) == (1.0, 1.0, 1.0)
    p, r, f1 = pairwise_f1([0, 0, 0, 0], [0, 0, 1, 1])
    assert abs(p - 1 / 3) < 1e-9 and r == 1.0 and abs(f1 - 0.5) < 1e-9
    _, r, f1 = pairwise_f1([0, 1, 2, 3], [0, 0, 1, 1])
    assert r == 0.0 and f1 == 0.0

    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"formula suite in {elapsed:.3f}s")


def test_criterion_2_gradient_fidelity():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ae = Autoencoder.create(4, (6, 3), seed=seed)   # < 500 parameters
        n_params = sum(p.size for p in ae.parameters())
        assert n_params <= 500
        X = rng.standard_normal((5, 4))
        params = ae.parameters()

        analytic = loss_and_grads(ae, X)[2]
        numeric = numeric_gradients(lambda: loss_and_grads(ae, X)[0], params)
        worst = max(worst, max_rel_error(analytic, numeric))

        k = 3
        centers = rng.standard_normal((k, 3))
        yind = np.zeros((5, k))
        yind[np.arange(5), rng.integers(k, size=5)] = 1.0
        lam = 0.1
        all_params = params + [centers]

        def loss():
            recon, ce, _, _ = loss_and_grads(ae, X, yind, centers, lam)
            return combined_loss(recon, ce, lam)

        grads, cgrad = loss_and_grads(ae, X, yind, centers, lam)[2:]
        numeric = numeric_gradients(loss, all_params)
        worst = max(worst, max_rel_error(grads + [cgrad], numeric))
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 30.0
    report(2, f"20 nets, max relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_hungarian_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    for trial in range(200):
        k = int(rng.integers(2, 7))
        cost = rng.standard_normal((k, k))
        assignment = hungarian(cost)
        got = float(cost[np.arange(k), assignment].sum())
        best = min(
            sum(cost[i, p[i]] for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert got == pytest.approx(best, abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, f"200 matrices in {elapsed:.1f}s")


def test_criterion_4_tao_monotonicity():
    start = time.time()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        tree = build_tree(X, rng.integers(k, size=n), max_depth=5, min_num=3,
                          k=k)
        size = tree.n_nodes
        labels = rng.integers(k, size=n)
        prev = misclassification(tree, X, labels)
        for iteration in range(50):
            changed = tao_pass(tree, X, labels)
            cur = misclassification(tree, X, labels)
            assert cur <= prev, f"seed {seed}: loss rose {prev} -> {cur}"
            assert tree.n_nodes <= size
            size = tree.n_nodes
            if not changed:
                break
            prev = misclassification(tree, X, labels := tree.predict_batch(X))
        else:
            pytest.fail(f"seed {seed}: no stability within 50 iterations")
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"100 instances in {elapsed:.1f}s")


def test_criterion_5_toy_node_objective():
    tree, X, Y = toy_three_label_instance()
    reach = compute_reach(tree, X)
    care = tao.care_set(tree, 1, reach[1], X, Y)
    assert len(care) == 4                       # one of five is excluded
    before = tao.node_objective(tree, 1, X, care)
    assert before == 1
    assert tao.optimize_node(tree, 1, reach[1], X, Y)
    care = tao.care_set(tree, 1, reach[1], X, Y)
    after = tao.node_objective(tree, 1, X, care)
    assert after == 0
    report(5, "node objective 1 -> 0")


def test_criterion_6_best_split_oracle():
    from test_dtree import oracle_best_split

    start = time.time()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        if seed % 2:
            X = rng.integers(0, 5, size=(n, d)).astype(float)  # forces ties
        else:
            X = rng.standard_normal((n, d))
        y = rng.integers(0, 3, size=n)
        assert best_split(X, y) == oracle_best_split(X, y), f"seed {seed}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, f"100 datasets in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def end_to_end_runs():
    views, truth = dataio.synth_multiview(n_per_cluster=200, k=3, n_views=3,
                                          dims=8, noise=0.5, seed=42)
    runs = []
    start = time.time()
    for seed in range(10):
        config = pipeline.PipelineConfig(k=3, seed=seed)   # paper defaults
        state = pipeline.fit(views, config)
        runs.append(state)
    return views, truth, runs, time.time() - start


def test_criterion_7_end_to_end_synthetic(end_to_end_runs):
    _, truth, runs, elapsed = end_to_end_runs
    good = 0
    for state in runs:
        acc = clustering_accuracy(state.labels.hard, truth)
        pur = purity(state.labels.hard, truth)
        if acc >= 0.95 and pur >= 0.95:
            good += 1
    assert good >= 8, f"only {good}/10 seeds reached 0.95"
    assert elapsed < 300.0
    report(7, f"{good}/10 seeds at >= 0.95 in {elapsed:.0f}s")


def test_criterion_8_tree_fidelity_gap(end_to_end_runs):
    _, truth, runs, _ = end_to_end_runs
    gaps = {"purity": [], "acc": [], "f1": []}
    for state in runs:
        tree_scores = (purity(state.labels.hard, truth),
                       clustering_accuracy(state.labels.hard, truth),
                       pairwise_f1(state.labels.hard, truth)[2])
        km_scores = (purity(state.kmeans_labels, truth),
                     clustering_accuracy(state.kmeans_labels, truth),
                     pairwise_f1(state.kmeans_labels, truth)[2])
        for key, t, m in zip(gaps, tree_scores, km_scores):
            gaps[key].append(abs(t - m))
    means = {key: float(np.mean(v)) for key, v in gaps.items()}
    assert all(v <= 0.05 for v in means.values()), means
    report(8, f"mean gaps {means}")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    assert cli_main(["synth", "--k", "2", "--views", "2", "--n", "10",
                     "--dims", "4", "--noise", "0.5", "--seed", "5",
                     "--out", str(ds)]) == 0
    # the model file holds only the served tree, so the training state of
    # each of the CLI's fits is compared through its digest
    states = []
    real_fit = pipeline.fit

    def recording_fit(views, config):
        states.append(real_fit(views, config))
        return states[-1]

    monkeypatch.setattr(pipeline, "fit", recording_fit)
    paths = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        rc = cli_main(["fit", str(ds / "manifest.json"), "--k", "2",
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
        paths.append(out)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert len(states) == 2
    digest_a, digest_b = (training_digest(state) for state in states)
    assert digest_a == digest_b
    report(9, f"model files byte-identical ({len(a)} bytes), training "
              f"digest {digest_a[:12]}")


def test_criterion_10_kmeans_properties():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        k = int(rng.integers(2, 5))
        Z = rng.standard_normal((n, 3))
        result = lloyd(Z, kmeanspp_init(Z, k, seed=seed))
        hist = result.sse_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), f"seed {seed}"

    from test_kmeans import brute_force_sse

    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 4))
        Z = rng.standard_normal((n, 2))
        result = kmeans(Z, k, seed=seed)
        # Lloyd fixed point: nearest-center labels and centroid centers
        dist = ((Z[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
        assert float(dist[np.arange(n), result.labels].sum()) == pytest.approx(
            result.sse, rel=1e-9)
        assert np.all(dist[np.arange(n), result.labels]
                      <= dist.min(axis=1) + 1e-12)
        for c in range(k):
            members = Z[result.labels == c]
            if members.size:
                np.testing.assert_allclose(result.centers[c],
                                           members.mean(axis=0), atol=1e-9)
        assert result.sse >= brute_force_sse(Z, k) - 1e-9
    report(10, "SSE monotone on 100 runs; local optimality on small instances")
