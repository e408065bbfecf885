import copy
import os
import re
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imvc
from imvc import data as dataio
from imvc import dtree, nncore, pipeline
from imvc.kmeans import KMeansResult
from imvc.pipeline import PipelineConfig

from test_training import train_view, training_digest
from trees import leaf_labels, make_tree


@pytest.fixture(scope="module")
def small_dataset():
    return dataio.synth_multiview(n_per_cluster=25, k=3, n_views=2, dims=4,
                                  noise=0.4, seed=7)


@pytest.fixture()
def no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("training ran before input validation")
    monkeypatch.setattr(pipeline, "_train_epochs", fail)


@pytest.fixture(scope="module")
def fitted(small_dataset):
    views, _ = small_dataset
    config = PipelineConfig(k=3, e1=30, e2=40, min_num=5, seed=1,
                            outer_cycles=3)
    return pipeline.fit(views, config)


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

    def test_no_views_rejected_before_training(self, no_training):
        with pytest.raises(ValueError, match="at least one view"):
            pipeline.fit([], PipelineConfig(k=2))

    @pytest.mark.parametrize("change, message", [
        ({"max_depth": 0}, "max_depth must be at least 1"),
        ({"min_num": 0}, "min_num must be at least 1"),
        ({"k": 1}, "k must be at least 2"),
        ({"e2": 0}, "e2 must be at least 1"),
        ({"seed": -1}, "seed must be at least 0"),
        ({"outer_cycles": -1}, "outer_cycles must be at least 0"),
        ({"k": "3"}, "k must be an integer, got '3'"),
        ({"e1": True}, "e1 must be an integer, got True"),
        ({"min_num": 2.0}, "min_num must be an integer, got 2.0"),
        ({"lam": np.nan}, "lam must be a finite number, got nan"),
        ({"lam": np.inf}, "lam must be a finite number, got inf"),
        ({"lr": np.nan}, "lr must be a finite number, got nan"),
        ({"lr": "0.01"}, "lr must be a finite number, got '0.01'"),
        ({"lam": -0.5}, "trade-off coefficient must be non-negative"),
        ({"lr": 0.0}, "learning rate must be positive"),
        ({"standardize": 1}, "standardize must be a boolean, got 1"),
    ], ids=["max-depth-zero", "min-num-zero", "k-one", "e2-zero",
            "seed-negative", "cycles-negative", "k-string", "e1-boolean",
            "min-num-float", "lam-nan", "lam-inf", "lr-nan", "lr-string",
            "lam-negative", "lr-zero", "standardize-int"])
    def test_bad_setting_rejected_before_training(self, no_training, change,
                                                  message):
        views = [np.arange(40.0).reshape(20, 2), np.ones((20, 1))]
        config = PipelineConfig(**{"k": 2, "e1": 1, **change})
        with pytest.raises(ValueError, match=message):
            pipeline.fit(views, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_view_rejected_before_training(self, no_training, bad):
        views = [np.zeros((4, 2)), np.zeros((4, 2))]
        views[1][2, 1] = bad
        with pytest.raises(ValueError, match="view 1 .* non-finite .* row 2"):
            pipeline.initialize(views, PipelineConfig(k=2, e1=1))

    @pytest.mark.parametrize("view, message", [
        (np.zeros(20),
         r"view 1 has shape \(20,\), expected \(rows, features\)"),
        (np.zeros((20, 2, 2)),
         r"view 1 has shape \(20, 2, 2\), expected \(rows, features\)"),
        (np.zeros((20, 0)), "view 1 has no features, expected at least 1"),
        ([["a", "b"]] * 20, "view 1 is not an array of numbers: could not "
                            "convert string to float"),
        ([[0.0, 0.0]] * 19 + [[0.0]],
         "view 1 is not an array of numbers: .* inhomogeneous shape"),
        (np.zeros((20, 2), dtype=complex),
         "view 1 is complex, expected real numbers"),
    ], ids=["1-d", "3-d", "no-columns", "strings", "ragged", "complex"])
    def test_misshapen_view_rejected_before_training(self, no_training, view,
                                                     message):
        views = [np.zeros((20, 2)), view]
        with pytest.raises(ValueError, match=message):
            pipeline.fit(views, PipelineConfig(k=2, e1=1))


class TestViewPool:
    """Views train on the scheduler; the worker count changes no float."""

    @staticmethod
    def three_views(n=60, seed=11):
        # widths 3, 8 and 5, so a worker's view shows in its weight shapes
        rng = np.random.default_rng(seed)
        hard = rng.integers(3, size=n)
        return [rng.standard_normal((3, d))[hard] * 2.0
                + 0.5 * rng.standard_normal((n, d)) + 1.5
                for d in (3, 8, 5)]

    @staticmethod
    def config(**changes):
        base = dict(k=3, e1=6, e2=5, min_num=5, seed=3, outer_cycles=2)
        return PipelineConfig(**{**base, **changes})

    @pytest.mark.parametrize("standardize", [False, True])
    def test_worker_count_changes_nothing(self, standardize, monkeypatch,
                                          tmp_path):
        views = self.three_views()
        fits = {}
        for workers in (1, 2, 5):
            monkeypatch.setattr(pipeline, "_view_workers",
                                lambda n_views, w=workers: w)
            state = pipeline.fit(views, self.config(standardize=standardize))
            path = tmp_path / f"model{workers}.bin"
            dataio.save_model(state, path)
            fits[workers] = (state, path.read_bytes())
        ref, ref_bytes = fits[1]
        for state, blob in (fits[2], fits[5]):
            assert blob == ref_bytes
            assert training_digest(state) == training_digest(ref)
            assert state.loss_history == ref.loss_history
            for got, want in zip(state.centers, ref.centers):
                assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(state.kmeans_labels,
                                          ref.kmeans_labels)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        views, config = self.three_views(), self.config(e1=4)
        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 1)
        want = pipeline.initialize(views, config)
        monkeypatch.setattr(pipeline, "_view_workers",
                            lambda n_views: 2 * (os.cpu_count() or 1) + 3)
        interval = sys.getswitchinterval()
        outer = ThreadPoolExecutor(max_workers=1)
        sys.setswitchinterval(1e-6)
        try:
            got = outer.submit(pipeline.initialize, views,
                               config).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            outer.shutdown(wait=False)
        assert got.loss_history == want.loss_history
        for ae, ref in zip(got.autoencoders, want.autoencoders):
            for p, q in zip(ae.parameters(), ref.parameters()):
                assert p.tobytes() == q.tobytes()

    def test_views_train_concurrently(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 2)
        both_running = threading.Barrier(2, timeout=60)

        def job(v):
            if v < 2:       # breaks unless views 0 and 1 run at once
                both_running.wait()
            yield
            return v

        assert pipeline._map_views(job, 3) == [0, 1, 2]

    def test_third_view_starts_before_the_first_ends(self, monkeypatch):
        # view 1's epochs are slow, so a pool that ran each view to its end
        # would start view 2 only once view 0 had finished
        order = []
        real = nncore.Autoencoder.loss_and_grads
        view_of_width = {3: 0, 8: 1, 5: 2}

        def recording(ae, X, *args, **kwargs):
            order.append(view_of_width[X.shape[1]])
            if order[-1] == 1:
                time.sleep(0.005)
            return real(ae, X, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 2)
        monkeypatch.setattr(nncore.Autoencoder, "loss_and_grads", recording)
        pipeline.initialize(self.three_views(), self.config(e1=6))
        last_of_view_0 = len(order) - 1 - order[::-1].index(0)
        assert order.index(2) < last_of_view_0

    def test_workspaces_built_at_most_once_per_worker(self, monkeypatch):
        built = []      # (view width, rows, centers) of each workspace

        class CountingWorkspace(nncore.Workspace):
            def __init__(self, ae, n, k):
                built.append((ae.input_dim, n, k))
                super().__init__(ae, n, k)

        rng = np.random.default_rng(4)
        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 2)
        monkeypatch.setattr(nncore, "Workspace", CountingWorkspace)
        # one shape for all views, then a shape per view
        for widths in [(4, 4, 4), (3, 4, 5)]:
            views = [rng.standard_normal((40, width)) for width in widths]
            built.clear()
            state = pipeline.initialize(views, self.config(e1=8))
            assert set(built) == {(width, 40, 0) for width in widths}
            assert max(Counter(built).values()) <= 2
            built.clear()
            pipeline.feature_phase(state, views, cycle=0)
            assert set(built) == {(width, 40, 3) for width in widths}
            assert max(Counter(built).values()) <= 2

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("phase", ["initialize", "feature_phase"])
    @pytest.mark.parametrize("error", [RuntimeWarning, FloatingPointError])
    def test_error_in_a_view_worker_reaches_the_caller(self, workers, phase,
                                                       error, monkeypatch):
        views = self.three_views()
        config = self.config()
        state = pipeline.initialize(views, config)
        real_adam_step = nncore.adam_step
        # a view's parameters are one vector, whose length gives its width
        widths = {nncore.Autoencoder.create(view.shape[1], pipeline.EMBED_DIMS,
                                            seed=0).flat_params.size:
                  view.shape[1] for view in views}

        def failing_adam_step(params, grads, adam):
            width = widths[params[0].size]
            if width in (8, 5):     # views 1 and 2; view 1's error wins
                if error is RuntimeWarning:
                    warnings.warn(f"width {width}", RuntimeWarning)
                raise FloatingPointError(f"width {width}")
            return real_adam_step(params, grads, adam)

        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: workers)
        monkeypatch.setattr(nncore, "adam_step", failing_adam_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="width 8"):
                if phase == "initialize":
                    pipeline.initialize(views, config)
                else:
                    pipeline.feature_phase(state, views, cycle=0)

    def test_callers_error_state_holds_in_the_workers(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 3)
        views = [1e300 * view for view in self.three_views()]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                pipeline.initialize(views, self.config())

    def test_workers_call_the_module_and_class_attributes(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)      # list.append is atomic under the GIL
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 3)
        monkeypatch.setattr(pipeline, "_train_epochs",
                            counting("train", pipeline._train_epochs))
        monkeypatch.setattr(nncore, "adam_step",
                            counting("adam", nncore.adam_step))
        monkeypatch.setattr(nncore.Autoencoder, "loss_and_grads",
                            counting("loss", nncore.Autoencoder.loss_and_grads))
        monkeypatch.setattr(nncore.Autoencoder, "forward",
                            counting("forward", nncore.Autoencoder.forward))
        config = self.config(e1=4, e2=3)
        state = pipeline.initialize(self.three_views(), config)
        pipeline.feature_phase(state, self.three_views(), cycle=0)
        assert calls.count("train") == 6
        assert calls.count("loss") == calls.count("adam") == 3 * (4 + 3)
        assert calls.count("forward") == 3 + 3

    def test_no_training_fixture_stops_pooled_training(self, no_training,
                                                       monkeypatch):
        monkeypatch.setattr(pipeline, "_view_workers", lambda n_views: 3)
        with pytest.raises(AssertionError, match="training ran"):
            pipeline.initialize(self.three_views(), self.config())


class TestFlatParameters:
    @staticmethod
    def assert_views_of_one_vector(ae):
        params = ae.parameters()
        assert sum(p.size for p in params) == ae.flat_params.size
        assert all(np.shares_memory(p, ae.flat_params) for p in params)
        ae.flat_params[:] = 0.5
        assert all(np.all(p == 0.5) for p in params)

    def test_after_create(self):
        self.assert_views_of_one_vector(
            nncore.Autoencoder.create(5, pipeline.EMBED_DIMS, seed=1))

    def test_after_a_deep_copy(self):
        ae = nncore.Autoencoder.create(3, (4, 2), seed=2)
        twin = copy.deepcopy(ae)
        assert twin.flat_params.tobytes() == ae.flat_params.tobytes()
        self.assert_views_of_one_vector(twin)
        assert not np.shares_memory(twin.flat_params, ae.flat_params)


class TestFeaturePhase:
    def test_lambda_zero_is_pure_reconstruction_training(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=5, e2=8, lam=0.0, min_num=5, seed=3)
        state = pipeline.initialize(views, config)
        twin = pipeline.initialize(views, config)
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views],
                               cycle=0)
        for ae, ae_twin, view in zip(state.autoencoders, twin.autoencoders,
                                     views):
            train_view(ae_twin, np.asarray(view, float), 8, config.lr)
            for a, b in zip(ae.parameters(), ae_twin.parameters()):
                np.testing.assert_array_equal(a, b)

    def test_single_epoch_changes_parameters(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=3, e2=1, min_num=5, seed=4)
        state = pipeline.initialize(views, config)
        before = [p.copy() for p in state.autoencoders[0].parameters()]
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views],
                               cycle=0)
        after = state.autoencoders[0].parameters()
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_combined_loss_improves(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=30, e2=60, min_num=5, seed=5)
        state = pipeline.initialize(views, config)
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views],
                               cycle=0)
        for trace in state.loss_history["feature"][0]:
            assert trace[-1] < trace[0]

    def test_views_are_not_routed_again(self, small_dataset, monkeypatch):
        # the targets are state.labels, which initialize and tree_phase set
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=2, e2=2, min_num=5, seed=3)
        state = pipeline.initialize(views, config)

        def routed(*args, **kwargs):
            raise AssertionError("feature_phase routed the views")

        monkeypatch.setattr(dtree.DecisionTree, "predict_views", routed)
        pipeline.feature_phase(state, [np.asarray(v, float) for v in views],
                               cycle=0)
        assert len(state.loss_history["feature"]) == 1

    def test_indicator_is_one_hot_and_consistent(self, fitted, small_dataset):
        # feature_phase's one-hot target is np.eye(k)[hard]: one in-range
        # label per row
        views, _ = small_dataset
        hard = fitted.labels.hard
        assert hard.dtype == np.int64 and np.all((0 <= hard) & (hard < 3))
        np.testing.assert_array_equal(fitted.labels.hard,
                                      fitted.predict(views))


class TestTreePhase:
    def test_tree_never_grows(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        pipeline.feature_phase(state, views64, cycle=0)
        before = state.tree.n_nodes
        pipeline.tree_phase(state, views64, cycle=0)
        assert state.tree.n_nodes <= before

    def test_final_labels_are_tree_outputs(self, small_dataset):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        pipeline.feature_phase(state, views64, cycle=0)
        pipeline.tree_phase(state, views64, cycle=0)
        np.testing.assert_array_equal(
            state.labels.hard, state.tree.predict_batch(np.hstack(views64)))

    def test_renumbered_partition_leaves_tree_unchanged(self, small_dataset,
                                                         monkeypatch):
        views, _ = small_dataset
        config = PipelineConfig(k=3, e1=10, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]
        before = state.labels.hard.copy()
        leaves = leaf_labels(state.tree)

        def renumbered(Z, k, seed):
            labels = (before + 1) % k
            return KMeansResult(labels=labels, centers=np.zeros((k, Z.shape[1])),
                                sse_history=[0.0])

        monkeypatch.setattr(pipeline, "run_kmeans", renumbered)
        pipeline.tree_phase(state, views64, cycle=0)
        np.testing.assert_array_equal(state.labels.hard, before)
        np.testing.assert_array_equal(state.kmeans_labels, before)
        assert leaf_labels(state.tree) == leaves

    def test_tree_loss_is_disagreement_with_pseudo_labels(self, small_dataset,
                                                          monkeypatch):
        views, truth = small_dataset
        config = PipelineConfig(k=3, e1=10, max_depth=1, min_num=5, seed=6)
        state = pipeline.initialize(views, config)
        views64 = [np.asarray(v, float) for v in views]

        def true_clusters(Z, k, seed):
            return KMeansResult(labels=np.asarray(truth, dtype=np.int64),
                                centers=np.zeros((k, Z.shape[1])),
                                sse_history=[0.0])

        monkeypatch.setattr(pipeline, "run_kmeans", true_clusters)
        pipeline.tree_phase(state, views64, cycle=0)
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
        state.tree = make_tree({0: 2}, 3, state.tree.feature_dim)
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
        with pytest.raises(ValueError,
                           match="view 1 has 3 features, expected 4"):
            pipeline.explain(fitted, [np.zeros(4), np.zeros(3)])

    @pytest.mark.parametrize("x_views, message", [
        ([np.zeros(4), np.zeros(4, dtype=complex)],
         "^view 1 is complex, expected real numbers$"),
        ([np.zeros(4), ["a", "b", "c", "d"]],
         "^view 1 is not an array of numbers: could not convert string"),
        ([np.zeros(4), [[1.0, 2.0], [3.0]]],
         "^view 1 is not an array of numbers: setting an array element"),
        ([np.zeros((1, 1, 4)), np.zeros(4)],
         r"^view 0 has shape \(1, 1, 4\), expected \(rows, 4\)$"),
        ([np.zeros(4)] * 3, "^expected 2 views, got 3$"),
    ], ids=["complex", "non-numeric", "ragged", "3-D", "view count"])
    def test_boundary_messages(self, fitted, x_views, message):
        with pytest.raises(ValueError, match=message):
            pipeline.explain(fitted, x_views)

    def test_multi_row_view_rejected(self, fitted, small_dataset):
        views, _ = small_dataset
        with pytest.raises(ValueError, match="view 1 has 2 rows; explain "
                                             "takes one instance"):
            pipeline.explain(fitted, [views[0][0], views[1][:2]])

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


def test_predict_rejects_a_view_that_is_not_2d(fitted, small_dataset):
    views, _ = small_dataset
    with pytest.raises(ValueError,
                       match=r"view 1 has shape \(75,\), expected \(rows, 4\)"):
        fitted.predict([views[0], views[1][:, 0]])


def test_predict_rejects_views_of_different_lengths(fitted, small_dataset):
    views, _ = small_dataset
    with pytest.raises(ValueError, match="view 1 has 74 rows, expected 75"):
        fitted.predict([views[0], views[1][:-1]])


def test_predict_and_explain_reject_a_view_too_few(fitted, small_dataset,
                                                   tmp_path):
    views, _ = small_dataset
    dataio.save_model(fitted, tmp_path / "model.bin")
    for model in (fitted, dataio.load_model(tmp_path / "model.bin")):
        with pytest.raises(ValueError, match="^expected 2 views, got 1$"):
            model.predict(views[:1])
        with pytest.raises(ValueError, match="^expected 2 views, got 1$"):
            pipeline.explain(model, [views[0][0]])


def test_finite_rows_whose_sum_overflows_are_accepted():
    for view in (np.array([[1e308], [1e308]]),
                 np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 0.0]]),
                 np.array([[1e308, 1e308]]), np.full((1, 2000), 1e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                pipeline._check_finite(view, 0)


@pytest.mark.parametrize("width", [1, 2, 2000])
def test_one_row_finite_check_under_a_raising_error_state(width):
    """`explain` accepts a finite row whose sum overflows, and rejects a
    NaN or +-inf in any column, with numpy raising and warnings errors."""
    tree = make_tree({0: (width, 0.0, 1, 2), 1: 0, 2: 1}, 2, width + 1)
    model = pipeline.ServedModel(config=PipelineConfig(k=2), tree=tree,
                                 view_dims=[1, width])
    row = np.full(width, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            assert pipeline.explain(model, [-1e308, row])[1] == 1
            for column in (0, width - 1):
                for bad in (np.nan, np.inf, -np.inf):
                    x = row.copy()
                    x[column] = bad
                    with pytest.raises(ValueError, match="^view 1 has a "
                                       "non-finite value in row 0$"):
                        pipeline.explain(model, [0.0, x])
                    with pytest.raises(ValueError, match="^view 0 has a "
                                       "non-finite value in row 0$"):
                        pipeline.explain(model, [bad, row])


@pytest.mark.parametrize("rows", [1, 2, 6])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_named_by_view_and_row(rows, bad):
    view = np.full((rows, 3), 1e308)
    view[rows - 1, 2] = bad
    with pytest.raises(ValueError,
                       match=f"view 2 has a non-finite value in row {rows - 1}"):
        pipeline._check_finite(view, 2)


class TestNonFiniteGradient:
    """A finite view whose gradients overflow fails naming the view, the
    phase and the 1-based epoch."""

    @staticmethod
    def view(scale=1.0):
        return scale * np.random.default_rng(0).standard_normal((60, 4))

    def test_pretraining(self):
        with pytest.raises(FloatingPointError) as info:
            pipeline.fit([self.view(), self.view(1e200)],
                         PipelineConfig(k=3, e1=3, e2=3))
        assert str(info.value) == (
            "view 1: non-finite gradient in pretraining epoch 1")

    def test_feature_phase(self):
        state = pipeline.initialize([self.view()],
                                    PipelineConfig(k=3, e1=3, e2=3))
        with pytest.raises(FloatingPointError) as info:
            pipeline.feature_phase(state, [self.view(1e200)], cycle=1)
        assert str(info.value) == (
            "view 0: non-finite gradient in cycle 2 feature-phase epoch 1")

    def test_overflowing_gradient_raises_without_a_warning(self):
        # every gradient entry is finite, but Adam's g g would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError) as info:
                pipeline.fit([self.view(1e150)],
                             PipelineConfig(k=3, e1=3, e2=3, outer_cycles=2))
        assert str(info.value) == (
            "view 0: overflowing gradient in pretraining epoch 1")

    def test_callers_errstate_overflow_is_named(self):
        # a caller's "raise" is kept, so numpy raises inside the epoch
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as info:
                pipeline.fit([self.view(1e200)],
                             PipelineConfig(k=3, e1=3, e2=3))
        assert re.fullmatch(r"view 0: overflow encountered in \w+ in "
                            r"pretraining epoch 1", str(info.value))

    def test_callers_errstate_overflow_in_seeding_is_named(self):
        state = pipeline.initialize([self.view()],
                                    PipelineConfig(k=3, e1=3, e2=3))
        views = [self.view(1e200)]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as info:
                pipeline.feature_phase(state, views, cycle=1)
        assert re.fullmatch(r"view 0: overflow encountered in \w+ in "
                            r"cycle 2 feature-phase seeding", str(info.value))



class TestStandardizationOverflow:
    """A finite view whose per-feature std overflows (entries from about
    1e154 up) is rejected before any training, naming the view."""

    @staticmethod
    def views(scale, at=0):
        rng = np.random.default_rng(0)
        views = [rng.standard_normal((60, 4)), rng.standard_normal((60, 3))]
        views[at] *= scale
        return views

    config = PipelineConfig(k=3, e1=2, e2=2, outer_cycles=1, standardize=True)

    def test_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError) as info:
                pipeline.fit(self.views(1e200), self.config)
        assert str(info.value) == (
            "view 0: overflowing mean or std in standardization")

    def test_callers_errstate_overflow_is_named(self):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as info:
                pipeline.fit(self.views(1e200, at=1), self.config)
        assert re.fullmatch(r"view 1: overflow encountered in \w+ in "
                            r"standardization", str(info.value))

    def test_largest_scale_below_the_overflow_fits(self):
        state = pipeline.fit(self.views(1e153), self.config)
        assert all(np.isfinite(pair).all() for pair in state.standardizer)


def test_fit_reproducible_bytes(tmp_path, small_dataset):
    views, _ = small_dataset
    config = PipelineConfig(k=3, e1=10, e2=10, min_num=5, seed=9,
                            outer_cycles=1)
    digests = []
    for name in ("a.bin", "b.bin"):
        state = pipeline.fit(views, PipelineConfig(**vars(config)))
        dataio.save_model(state, tmp_path / name)
        digests.append(training_digest(state))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert digests[0] == digests[1]


DEGENERATE_KINDS = ["n_equals_k", "constant_columns", "duplicate_rows",
                    "one_view", "one_feature_per_view", "scaled_view"]


@st.composite
def degenerate_problems(draw, kind):
    """Valid views of one degenerate kind, with a short-training config,
    and whether the fit runs under np.errstate(all="raise"). A scaled view
    is one view times 10**e, e from -300 to 200."""
    k = draw(st.integers(2, 4))
    n = k if kind == "n_equals_k" else draw(st.integers(k, 12))
    n_views = 1 if kind == "one_view" else draw(st.integers(1, 3))
    if kind == "one_feature_per_view":
        dims = [1] * n_views
    else:
        dims = [draw(st.integers(1, 3)) for _ in range(n_views)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "duplicate_rows":
        distinct = draw(st.integers(1, min(n, k + 1)))
        rows = rng.integers(distinct, size=n)
        views = [rng.standard_normal((distinct, d))[rows] for d in dims]
    else:
        views = [rng.standard_normal((n, d)) for d in dims]
    if kind == "constant_columns":
        for view in views:
            constant = draw(st.lists(st.booleans(), min_size=view.shape[1],
                                     max_size=view.shape[1]))
            view[:, constant] = draw(st.sampled_from([0.0, 1.0, -2.5]))
        views[0][:, 0] = 3.0
    if kind == "scaled_view":
        views[draw(st.integers(0, n_views - 1))] *= 10.0 ** draw(
            st.integers(-300, 200))
    config = PipelineConfig(k=k, e1=3, e2=3, min_num=draw(st.integers(1, 3)),
                            seed=draw(st.integers(0, 100)),
                            standardize=draw(st.booleans()))
    return views, config, draw(st.booleans())


@pytest.mark.parametrize("kind", DEGENERATE_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_degenerate_inputs_fit_and_route_every_row(kind, data):
    """The fit either runs with no warning and routes every row to its
    label, before and after a save and load, or, for a scaled view or
    under a raising error state only, fails naming the view, and for a
    floating-point error the step where it happened."""
    views, config, raising = data.draw(degenerate_problems(kind))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            with np.errstate(**({"all": "raise"} if raising else {})):
                state = pipeline.fit(views, config)
        except (ValueError, FloatingPointError) as exc:
            if not (raising or kind == "scaled_view"):
                raise
            assert re.match(r"view \d+", str(exc)), exc
            if isinstance(exc, FloatingPointError):     # and where it was
                assert re.fullmatch(r"view \d+: .+ in (standardization|.* "
                                    r"(epoch \d+|seeding))", str(exc)), exc
            return
        labels = state.predict(views)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.bin")
            dataio.save_model(state, path)
            loaded = dataio.load_model(path).predict(views)
    assert labels.shape == (views[0].shape[0],)
    assert labels.min() >= 0 and labels.max() < config.k
    np.testing.assert_array_equal(labels, state.labels.hard)
    np.testing.assert_array_equal(loaded, state.labels.hard)
