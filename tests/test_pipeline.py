import numpy as np
import pytest

import imvc
from imvc import data as dataio
from imvc import nncore, pipeline
from imvc.dtree import LEAF
from imvc.kmeans import KMeansResult
from imvc.pipeline import PipelineConfig, concat_embeddings


@pytest.fixture(scope="module")
def small_dataset():
    return dataio.synth_multiview(n_per_cluster=25, k=3, n_views=2, dims=4,
                                  noise=0.4, seed=7)


@pytest.fixture()
def no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("training ran before input validation")
    monkeypatch.setattr(pipeline, "_train_view", fail)


@pytest.fixture(scope="module")
def fitted(small_dataset):
    views, _ = small_dataset
    config = PipelineConfig(k=3, e1=30, e2=40, min_num=5, seed=1,
                            outer_cycles=3)
    return pipeline.fit(views, config)


class TestConcat:
    def test_single_view_identity(self):
        Z = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(concat_embeddings([Z]), Z)

    def test_view_order_preserved(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = concat_embeddings([a, b])
        np.testing.assert_array_equal(out, [[1, 2, 5, 6], [3, 4, 7, 8]])

    def test_column_offsets(self):
        rng = np.random.default_rng(1)
        zs = [rng.standard_normal((3, 64)) for _ in range(3)]
        out = concat_embeddings(zs)
        for v, z in enumerate(zs):
            for j in (0, 17, 63):
                np.testing.assert_array_equal(out[:, v * 64 + j], z[:, j])

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concat_embeddings([np.zeros((2, 2)), np.zeros((3, 2))])


class TestInitialize:
    def test_smoke_single_epoch(self, small_dataset):
        views, _ = small_dataset
        state = pipeline.initialize(views, PipelineConfig(k=3, e1=1, min_num=5))
        assert state.tree.n_nodes >= 1
        assert state.labels.hard.shape == (75,)
        assert set(np.unique(state.labels.hard)) <= {0, 1, 2}

    def test_pretraining_reduces_reconstruction_loss(self, small_dataset):
        views, _ = small_dataset
        state = pipeline.initialize(views, PipelineConfig(k=3, e1=50, min_num=5))
        for trace in state.loss_history["pretrain"]:
            assert trace[-1] < trace[0]

    def test_tree_beats_majority_baseline(self, small_dataset):
        views, _ = small_dataset
        state = pipeline.initialize(views, PipelineConfig(k=3, e1=20, min_num=5))
        y = state.kmeans_labels
        agree = np.mean(state.tree.predict_batch(np.hstack(views)) == y)
        baseline = np.bincount(y).max() / y.size
        assert agree >= baseline

    def test_misaligned_views_rejected(self):
        with pytest.raises(ValueError):
            pipeline.initialize([np.zeros((4, 2)), np.zeros((5, 2))],
                                PipelineConfig(k=2, e1=1))

    def test_k_above_n_rejected_before_training(self, no_training):
        views = [np.arange(8.0).reshape(4, 2), np.arange(4.0).reshape(4, 1)]
        with pytest.raises(ValueError, match="k = 5 exceeds the 4 instances"):
            pipeline.initialize(views, PipelineConfig(k=5, e1=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_view_rejected_before_training(self, no_training, bad):
        views = [np.zeros((4, 2)), np.zeros((4, 2))]
        views[1][2, 1] = bad
        with pytest.raises(ValueError, match="view 1 .* non-finite .* row 2"):
            pipeline.initialize(views, PipelineConfig(k=2, e1=1))


class TestFeaturePhase:
    def test_lambda_zero_is_pure_reconstruction_training(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=5, e2=8, lam=0.0, min_num=5, seed=3)
        state = pipeline.initialize(views, config)
        twin = pipeline.initialize(views, config)
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views])
        for ae, ae_twin, view in zip(state.autoencoders, twin.autoencoders,
                                     views):
            pipeline._train_view(ae_twin, np.asarray(view, float), 8, config.lr)
            for a, b in zip(ae.parameters(), ae_twin.parameters()):
                np.testing.assert_array_equal(a, b)

    def test_single_epoch_changes_parameters(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=3, e2=1, min_num=5, seed=4)
        state = pipeline.initialize(views, config)
        before = [p.copy() for p in state.autoencoders[0].parameters()]
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views])
        after = state.autoencoders[0].parameters()
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_combined_loss_improves(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=30, e2=60, min_num=5, seed=5)
        state = pipeline.initialize(views, config)
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views])
        for trace in state.loss_history["feature"][0]:
            assert trace[-1] < trace[0]

    def test_indicator_is_one_hot_and_consistent(self, fitted, small_dataset):
        views, _ = small_dataset
        ind = fitted.labels.indicator
        assert np.all(ind.sum(axis=1) == 1.0)
        np.testing.assert_array_equal(np.argmax(ind, axis=1),
                                      fitted.labels.hard)
        np.testing.assert_array_equal(fitted.labels.hard,
                                      fitted.predict(views))


class TestTreePhase:
    def test_tree_never_grows(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        pipeline.feature_phase(state, views64)
        before = state.tree.n_nodes
        pipeline.tree_phase(state, views64)
        assert state.tree.n_nodes <= before

    def test_final_labels_are_tree_outputs(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        pipeline.feature_phase(state, views64)
        pipeline.tree_phase(state, views64)
        np.testing.assert_array_equal(
            state.labels.hard, state.tree.predict_batch(np.hstack(views64)))

    def test_renumbered_partition_leaves_tree_unchanged(self, small_dataset,
                                                         monkeypatch):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        before = state.labels.hard.copy()
        leaves = {i: n.label for i, n in state.tree.nodes.items()
                  if n.kind == LEAF}

        def renumbered(Z, k, seed):
            labels = (before + 1) % k
            return KMeansResult(labels=labels, centers=np.zeros((k, Z.shape[1])),
                                sse=0.0, iterations=1)

        monkeypatch.setattr(pipeline, "run_kmeans", renumbered)
        pipeline.tree_phase(state, views64)
        np.testing.assert_array_equal(state.labels.hard, before)
        np.testing.assert_array_equal(state.kmeans_labels, before)
        assert {i: n.label for i, n in state.tree.nodes.items()
                if n.kind == LEAF} == leaves

    def test_tree_loss_is_disagreement_with_pseudo_labels(self, small_dataset,
                                                          monkeypatch):
        views, truth = small_dataset
        config = PipelineConfig(k=3, e1=10, max_depth=1, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]

        def true_clusters(Z, k, seed):
            return KMeansResult(labels=np.asarray(truth, dtype=np.int64),
                                centers=np.zeros((k, Z.shape[1])),
                                sse=0.0, iterations=1)

        monkeypatch.setattr(pipeline, "run_kmeans", true_clusters)
        pipeline.tree_phase(state, views64)
        disagreement = int(np.sum(state.labels.hard != state.kmeans_labels))
        assert disagreement > 0        # two leaves cannot hold three clusters
        assert state.loss_history["tree"] == [disagreement]


class TestFit:
    def test_zero_cycles_returns_initialization(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=5, outer_cycles=0, min_num=5, seed=2)
        state = pipeline.fit(views, config)
        ref = pipeline.initialize(views, config)
        np.testing.assert_array_equal(state.labels.hard, ref.labels.hard)
        assert state.cycles_run == 0

    def test_recovers_synthetic_clusters(self, fitted, small_dataset):
        _, truth = small_dataset
        acc = imvc.clustering_accuracy(fitted.labels.hard, truth)
        assert acc >= 0.95

    def test_convergence_means_identical_labels(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=20, e2=30, min_num=5, seed=1,
                                outer_cycles=6)
        state = pipeline.fit(views, config)
        if state.converged:
            # one more joint cycle leaves the hard labels untouched
            before = state.labels.hard.copy()
            views64 = [np.asarray(v, float) for v in views]
            pipeline.feature_phase(state, views64, cycle=state.cycles_run - 1)
            pipeline.tree_phase(state, views64, cycle=state.cycles_run - 1)
            np.testing.assert_array_equal(state.labels.hard, before)

    def test_stable_partition_stops_after_one_cycle(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=20, e2=30, min_num=5, seed=2,
                                outer_cycles=5)
        state = pipeline.fit(views, config)
        assert state.converged
        assert state.cycles_run == 1

    def test_standardize_flag_round_trips_through_predict(self, small_dataset):
        views, truth = small_dataset
        config = PipelineConfig(k=3, e1=20, e2=20, min_num=5, seed=8,
                                outer_cycles=1, standardize=True)
        state = pipeline.fit(views, config)
        np.testing.assert_array_equal(state.predict(views), state.labels.hard)
        assert state.standardizer is not None


class TestExplain:
    def test_single_leaf_tree(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=1, min_num=5, seed=0)
        state = pipeline.initialize(views, config)
        # collapse to one leaf
        from imvc.dtree import DecisionTree, TreeNode, LEAF
        state.tree = DecisionTree(
            {0: TreeNode(id=0, kind=LEAF, depth=0, label=2)}, 0, 3,
            state.tree.feature_dim)
        path, label = pipeline.explain(state, [v[0] for v in views])
        assert path == []
        assert label == 2

    def test_path_matches_prediction(self, fitted, small_dataset):
        views, _ = small_dataset
        for i in (0, 30, 74):
            path, label = pipeline.explain(fitted, [v[i] for v in views])
            assert label == fitted.labels.hard[i]
            assert len(path) >= 1

    def test_view_attribution_offsets(self, fitted, small_dataset):
        views, _ = small_dataset
        path, _ = pipeline.explain(fitted, [v[0] for v in views])
        for step in path:
            assert step.feature == step.view * 4 + step.local_feature
            assert 0 <= step.local_feature < 4

    def test_dimension_mismatch(self, fitted):
        with pytest.raises(ValueError):
            pipeline.explain(fitted, [np.zeros(4), np.zeros(3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, fitted, small_dataset, bad):
        views, _ = small_dataset
        x = [views[0][0].copy(), views[1][0].copy()]
        x[1][2] = bad
        with pytest.raises(ValueError, match="view 1 has a non-finite value in row 0"):
            pipeline.explain(fitted, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_query(fitted, small_dataset, bad):
    views, _ = small_dataset
    query = [views[0][:5].copy(), views[1][:5].copy()]
    query[0][3] = bad
    with pytest.raises(ValueError, match="view 0 has a non-finite value in row 3"):
        fitted.predict(query)


def test_fit_reproducible_bytes(tmp_path, small_dataset):
    views, _ = small_dataset
    config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=9,
                            outer_cycles=1)
    for name in ("a.bin", "b.bin"):
        state = pipeline.fit(views, PipelineConfig(**vars(config)))
        dataio.save_model(state, tmp_path / name)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
