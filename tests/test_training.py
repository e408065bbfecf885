"""Autoencoder training against an allocate-per-call reference.

`reference_loss_and_grads` and `reference_adam_step` are the formulas as
they were before training reused a Workspace and Adam scratch: every
intermediate is a fresh array. Training one view through
`pipeline._train_epochs`, as `train_view` does, must reproduce them bit
for bit.
"""

import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvc import nncore, parallel, pipeline
from imvc.nncore import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LOG_EPS, AdamState,
                         Autoencoder, DenseLayer, Workspace, adam_step)

from nets import loss_and_grads


def train_view(ae, X, epochs, lr, yind=None, centers=None, lam=0.0):
    """Train one view on its own, as the pipeline's phases train each of
    theirs; returns the loss history."""
    return parallel.run([pipeline._train_epochs(ae, X, epochs, lr,
                                                nncore.WorkspacePool(),
                                                yind=yind, centers=centers,
                                                lam=lam, view=0)], 1)[0]


def training_digest(state):
    """sha256 of what a fit trained beyond the model file: each view's
    autoencoder parameters and centers, and the latest k-means labels."""
    digest = hashlib.sha256()
    for array in (*(ae.flat_params for ae in state.autoencoders),
                  *state.centers, state.kmeans_labels):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def reference_loss_and_grads(ae, X, yind=None, centers=None, lam=0.0):
    def run(stack, x, caches):
        # a ReLU after every layer of the stack but the last
        for i, layer in enumerate(stack):
            pre = x @ layer.w + layer.b
            relu = i < len(stack) - 1
            caches.append((x, pre, layer, relu))
            x = np.maximum(pre, 0.0) if relu else pre
        return x

    enc_caches, dec_caches = [], []
    Z = run(ae.encoder, X, enc_caches)
    Xhat = run(ae.decoder, Z, dec_caches)
    recon = float(np.sum((Xhat - X) ** 2))

    ce, dZ_ce, center_grad = 0.0, None, None
    if lam > 0.0 and yind is not None:
        diff = Z[:, None, :] - centers[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        a = 1.0 / (1.0 + d2)
        s = a / np.sum(a, axis=1, keepdims=True)
        ce = float(-np.sum(yind * np.log(np.clip(s, LOG_EPS, None))))
        g = a * (yind - yind.sum(axis=1, keepdims=True) * s)
        dZ_ce = 2.0 * (g.sum(axis=1, keepdims=True) * Z - g @ centers)
        center_grad = lam * 2.0 * (g.sum(axis=0)[:, None] * centers - g.T @ Z)

    def backprop(caches, grad_out):
        grads_wb = []
        g = grad_out
        for x_in, pre, layer, relu in reversed(caches):
            if relu:
                g = g * (pre > 0)
            grads_wb.append((x_in.T @ g, g.sum(axis=0)))
            g = g @ layer.w.T
        grads_wb.reverse()
        return grads_wb, g

    dec_grads, dZ_rec = backprop(dec_caches, 2.0 * (Xhat - X))
    dZ = dZ_rec if dZ_ce is None else dZ_rec + lam * dZ_ce
    enc_grads, _ = backprop(enc_caches, dZ)
    grads = []
    for dw, db in (*enc_grads, *dec_grads):
        grads.append(dw)
        grads.append(db)
    return recon, ce, grads, center_grad


def reference_adam_step(params, grads, state):
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in adam_step")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def reference_train_view(ae, X, epochs, lr, yind=None, centers=None, lam=0.0):
    params = ae.parameters()
    train_centers = centers is not None and lam > 0.0
    if train_centers:
        params = params + [centers]
    adam = AdamState(params, lr=lr)
    history = []
    for _ in range(epochs):
        recon, ce, grads, cgrad = reference_loss_and_grads(ae, X, yind,
                                                           centers, lam)
        history.append(recon + lam * ce)
        if train_centers:
            grads = grads + [cgrad]
        reference_adam_step(params, grads, adam)
    return history


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_training(ae, X, epochs, lr, yind=None, centers=None, lam=0.0):
    """Train twins of ae and centers both ways; every bit must agree."""
    ref_ae, ref_centers = copy.deepcopy(ae), copy.deepcopy(centers)
    got = train_view(ae, X, epochs, lr, yind=yind, centers=centers, lam=lam)
    want = reference_train_view(ref_ae, X, epochs, lr, yind=yind,
                                centers=ref_centers, lam=lam)
    assert got == want
    for p, q in zip(ae.parameters(), ref_ae.parameters()):
        assert_bits_equal(p, q)
    if centers is not None:
        assert_bits_equal(centers, ref_centers)


def one_hot(hard, k):
    yind = np.zeros((len(hard), k))
    yind[np.arange(len(hard)), hard] = 1.0
    return yind


@st.composite
def training_problems(draw):
    n = draw(st.integers(1, 9))
    input_dim = draw(st.integers(1, 4))
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    k = draw(st.integers(1, 4))
    lam = draw(st.sampled_from([0.0, 0.1, 2.5]))
    seed = draw(st.integers(0, 2**16))
    ae = Autoencoder.create(input_dim, hidden, seed=seed)
    # kill some ReLU units: a bias far below any pre-activation keeps them at 0
    for layer in (*ae.encoder[:-1], *ae.decoder[:-1]):  # the ReLU layers
        dead = draw(st.lists(st.booleans(), min_size=layer.out_dim,
                             max_size=layer.out_dim))
        layer.b[np.asarray(dead, dtype=bool)] = -1e3
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, input_dim))
    yind = one_hot(rng.integers(k, size=n), k)
    centers = rng.standard_normal((k, hidden[-1]))
    return ae, X, yind, centers, lam


class TestTrainViewOracle:
    @settings(max_examples=60, deadline=None)
    @given(training_problems())
    def test_bitwise_equal_to_reference(self, problem):
        ae, X, yind, centers, lam = problem
        assert_same_training(ae, X, 4, 0.01, yind=yind, centers=centers,
                             lam=lam)

    @settings(max_examples=20, deadline=None)
    @given(training_problems())
    def test_pretraining_bitwise_equal_to_reference(self, problem):
        ae, X, _, _, _ = problem
        assert_same_training(ae, X, 4, 0.01)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_acceptance_shape_bitwise_equal(self, lam):
        rng = np.random.default_rng(5)
        ae = Autoencoder.create(8, pipeline.EMBED_DIMS, seed=[0, 1, 1])
        X = rng.standard_normal((600, 8))
        yind = one_hot(rng.integers(3, size=600), 3)
        centers = 0.1 * rng.standard_normal((3, pipeline.EMBED_DIMS[-1]))
        assert_same_training(ae, X, 12, 0.001, yind=yind, centers=centers,
                             lam=lam)


class TestWorkspace:
    def problem(self, n=7, k=3, seed=0):
        rng = np.random.default_rng(seed)
        ae = Autoencoder.create(4, (6, 3), seed=seed)
        X = rng.standard_normal((n, 4))
        yind = one_hot(rng.integers(k, size=n), k)
        centers = rng.standard_normal((k, 3))
        return ae, X, yind, centers

    def test_reused_workspace_equals_fresh(self):
        ae, X, yind, centers = self.problem()
        ws = Workspace(ae, X.shape[0], 3)
        ae.loss_and_grads(2.0 * X + 1.0, yind, centers, 0.1, ws=ws)
        reused = ae.loss_and_grads(X, yind, centers, 0.1, ws=ws)
        fresh = loss_and_grads(ae, X, yind, centers, 0.1)
        assert reused[:2] == fresh[:2]
        for a, b in zip(reused[2] + [reused[3]], fresh[2] + [fresh[3]]):
            assert_bits_equal(a, b)


class TestEpochAllocation:
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_epoch_allocates_under_64kb(self, lam):
        rng = np.random.default_rng(0)
        ae = Autoencoder.create(8, pipeline.EMBED_DIMS, seed=0)
        X = rng.standard_normal((600, 8))
        yind = one_hot(rng.integers(3, size=600), 3)
        centers = rng.standard_normal((3, pipeline.EMBED_DIMS[-1]))
        params = ae.parameters() + ([centers] if lam else [])
        adam = AdamState(params, lr=0.001)
        ws = Workspace(ae, 600, 3 if lam else 0)

        def epoch():
            _, _, grads, cgrad = ae.loss_and_grads(X, yind, centers, lam, ws=ws)
            adam_step(params, grads + ([cgrad] if lam else []), adam)

        epoch()
        tracemalloc.start()
        try:
            epoch()     # warm: first traced call may intern small objects
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            epoch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 64 * 1024


class TestAdamFailure:
    def test_non_finite_gradient_changes_nothing(self):
        rng = np.random.default_rng(1)
        params = [rng.standard_normal((3, 2)), rng.standard_normal(2),
                  rng.standard_normal((2, 2))]
        state = AdamState(params, lr=0.01)
        for _ in range(3):
            adam_step(params, [rng.standard_normal(p.shape) for p in params],
                      state)
        before = [a.copy() for a in (*params, *state.m, *state.v)]
        for bad in (np.nan, np.inf, -np.inf):
            grads = [rng.standard_normal(p.shape) for p in params]
            grads[-1][1, 0] = bad
            with pytest.raises(FloatingPointError):
                adam_step(params, grads, state)
            assert state.step == 3
            for a, b in zip((*params, *state.m, *state.v), before):
                assert_bits_equal(a, b)


def test_non_finite_loss_stops_training_before_any_change():
    # every residual is ±1e154: their squares sum past the float range,
    # while the zero weights and the cancelling rows keep every gradient 0
    ae = Autoencoder([DenseLayer(np.zeros((1, 1)), np.zeros(1))],
                     [DenseLayer(np.zeros((1, 1)), np.zeros(1))])
    X = np.array([[1e154], [-1e154], [1e154], [-1e154]])
    with pytest.raises(FloatingPointError) as info:
        train_view(ae, X, 2, 0.01)
    assert str(info.value) == "view 0: non-finite loss in pretraining epoch 1"
    assert not ae.flat_params.any()


def test_centers_without_targets_train_as_pretraining():
    # without targets the cross-entropy term is off whatever lam is, so the
    # centers neither enter the loss nor train
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    centers = rng.standard_normal((3, 3))
    kept = centers.copy()
    ae = Autoencoder.create(4, (6, 3), seed=7)
    twin = copy.deepcopy(ae)
    assert (train_view(ae, X, 5, 0.01, centers=centers, lam=0.1)
            == train_view(twin, X, 5, 0.01))
    assert_bits_equal(ae.flat_params, twin.flat_params)
    assert_bits_equal(centers, kept)
