import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imvc import nncore
from imvc.nncore import (
    AdamState,
    Autoencoder,
    DenseLayer,
    Workspace,
    adam_step,
    combined_loss,
)

from nets import cross_entropy_loss, loss_and_grads, soft_assignment


def tiny_ae(input_dim=3, hidden=(4, 2), seed=7):
    return Autoencoder.create(input_dim, hidden, seed=seed)


def hand_rolled(stack, h):
    """The layers of one stack applied by explicit matmul, one at a time,
    with a ReLU after each but the last."""
    for i, layer in enumerate(stack):
        h = h @ layer.w + layer.b
        if i < len(stack) - 1:
            h = np.maximum(h, 0.0)
    return h


class TestForward:
    def test_zero_parameters_map_to_zero(self):
        ae = tiny_ae()
        for layer in (*ae.encoder, *ae.decoder):
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        X = np.random.default_rng(0).standard_normal((5, 3))
        assert np.all(ae.forward(X) == 0.0)
        # the reconstruction is zero too, so Lr is the sum of squares of X
        assert loss_and_grads(ae, X)[0] == np.sum(np.square(X))

    def test_identity_one_by_one_linear_layers(self):
        enc = [DenseLayer(np.eye(1), np.zeros(1))]
        dec = [DenseLayer(np.eye(1), np.zeros(1))]
        ae = Autoencoder(enc, dec)
        np.testing.assert_allclose(ae.forward(np.array([[2.0]])), [[2.0]])
        assert loss_and_grads(ae, np.array([[2.0]]))[0] == 0.0

    def test_matches_hand_rolled_layer_trace(self):
        # independent oracle: explicit matmul/relu per layer
        ae = tiny_ae(seed=11)
        X = np.random.default_rng(5).standard_normal((1, 3))
        np.testing.assert_allclose(ae.forward(X), hand_rolled(ae.encoder, X),
                                   rtol=1e-12)

    def test_deterministic_for_fixed_parameters(self):
        ae = tiny_ae()
        X = np.random.default_rng(1).standard_normal((4, 3))
        assert np.array_equal(ae.forward(X), ae.forward(X))


def reconstruction_loss(X, scale=1.0, shift=0.0):
    """The Lr that loss_and_grads returns for X when the reconstruction is
    scale * X + shift: one linear layer each way, a scaled identity into
    the embedding and an identity plus `shift` back out."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    ae = Autoencoder([DenseLayer(scale * np.eye(d), np.zeros(d))],
                     [DenseLayer(np.eye(d), np.broadcast_to(shift, d))])
    return loss_and_grads(ae, X)[0]


class TestReconstructionLoss:
    """Lr, the sum of squared residuals, as loss_and_grads computes it."""

    def test_zero_when_equal(self):
        X = np.random.default_rng(0).standard_normal((3, 2))
        assert reconstruction_loss(X) == 0.0

    def test_unit_residual(self):
        assert reconstruction_loss([[1.0, 0.0]], shift=[-1.0, 0.0]) == 1.0

    def test_sum_of_squares_oracle(self):
        # reconstruction 0 everywhere; by hand: 1 + 4 + 9 + 16
        assert reconstruction_loss([[1, 2], [3, 4]], scale=0.0) == 30.0

    def test_strictly_positive_when_different(self):
        assert reconstruction_loss(np.zeros((2, 2)), shift=[1e-9, 0.0]) > 0.0

    def test_matches_hand_rolled_decoder_trace(self):
        # independent oracle: the decoder applied by hand to the embedding
        ae = tiny_ae(seed=11)
        X = np.random.default_rng(5).standard_normal((6, 3))
        Xhat = hand_rolled(ae.decoder, hand_rolled(ae.encoder, X))
        assert loss_and_grads(ae, X)[0] == pytest.approx(
            np.sum((Xhat - X) ** 2), rel=1e-12)


class TestSoftAssignment:
    def test_single_center_is_one(self):
        s = soft_assignment(np.random.default_rng(0).standard_normal((4, 2)),
                            np.zeros((1, 2)))
        np.testing.assert_allclose(s, 1.0)

    def test_equidistant_symmetry(self):
        s = soft_assignment(np.array([[0.0, 0.0]]),
                            np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_hand_evaluated_case(self):
        # distances 0 and 1: weights 1 and 0.5 -> (2/3, 1/3)
        s = soft_assignment(np.array([[0.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(s, [[2 / 3, 1 / 3]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (6, 3), elements=st.floats(-50, 50)),
           arrays(np.float64, (4, 3), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, Z, C):
        s = soft_assignment(Z, C)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(s > 0.0) and np.all(s <= 1.0)


class TestCrossEntropy:
    def test_perfect_assignment_is_zero(self):
        y = np.eye(3)
        assert cross_entropy_loss(y, y) == 0.0

    def test_log_two(self):
        loss = cross_entropy_loss([[1.0, 0.0]], [[0.5, 0.5]])
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_additivity(self):
        one = cross_entropy_loss([[1.0, 0.0]], [[0.5, 0.5]])
        two = cross_entropy_loss([[1.0, 0.0], [0.0, 1.0]],
                                 [[0.5, 0.5], [0.5, 0.5]])
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_clamps_zero_probability(self):
        loss = cross_entropy_loss([[1.0, 0.0]], [[0.0, 1.0]])
        assert loss == pytest.approx(-np.log(nncore.LOG_EPS))


class TestCombinedLoss:
    def test_lambda_zero(self):
        assert combined_loss(3.5, 100.0, 0.0) == 3.5

    def test_default_tradeoff_arithmetic(self):
        assert combined_loss(1.0, 2.0, 0.1) == pytest.approx(1.2)

    def test_pure_ce(self):
        assert combined_loss(0.0, 5.0, 1.0) == 5.0


def numeric_gradients(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            hi = loss_fn()
            p[ix] = orig - h
            lo = loss_fn()
            p[ix] = orig
            g[ix] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestBackward:
    def test_zero_residual_gives_zero_output_layer_gradient(self):
        # identity map: zero reconstruction residual everywhere
        enc = [DenseLayer(np.eye(2), np.zeros(2))]
        dec = [DenseLayer(np.eye(2), np.zeros(2))]
        ae = Autoencoder(enc, dec)
        grads = loss_and_grads(ae, np.array([[1.0, -2.0]]))[2]
        for g in grads:
            np.testing.assert_allclose(g, 0.0)

    def test_reconstruction_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        ae = tiny_ae(input_dim=4, hidden=(5, 3), seed=3)
        X = rng.standard_normal((6, 4))
        params = ae.parameters()
        analytic = loss_and_grads(ae, X)[2]
        numeric = numeric_gradients(
            lambda: loss_and_grads(ae, X)[0], params)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_combined_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ae = tiny_ae(input_dim=4, hidden=(5, 3), seed=4)
        X = rng.standard_normal((6, 4))
        centers = rng.standard_normal((2, 3))
        yind = np.zeros((6, 2))
        yind[np.arange(6), rng.integers(2, size=6)] = 1.0
        lam = 0.1
        params = ae.parameters() + [centers]

        def loss():
            recon, ce, _, _ = loss_and_grads(ae, X, yind, centers, lam)
            return combined_loss(recon, ce, lam)

        grads, cgrad = loss_and_grads(ae, X, yind, centers, lam)[2:]
        numeric = numeric_gradients(loss, params)
        assert max_rel_error(grads + [cgrad], numeric) <= 1e-4

    def test_lambda_zero_equals_pure_reconstruction(self):
        ae = tiny_ae(seed=9)
        X = np.random.default_rng(9).standard_normal((5, 3))
        pure = loss_and_grads(ae, X)[2]
        mixed, cgrad = loss_and_grads(ae, X, yind=np.ones((5, 2)) / 2,
                                      centers=np.zeros((2, 2)), lam=0.0)[2:]
        assert cgrad is None
        for a, b in zip(pure, mixed):
            np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = np.array([1.0, 2.0])
        state = AdamState([p], lr=0.001)
        adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        # hand evaluation at t=1: update = lr * g / (|g| + eps') ~= lr
        p = np.array([0.0])
        state = AdamState([p], lr=0.001)
        adam_step([p], [np.array([1.0])], state)
        assert p[0] == pytest.approx(-0.001, rel=1e-4)

    def test_two_steps_match_scripted_oracle(self):
        p = np.array([0.5, -1.5])
        g = np.array([0.3, -0.2])
        state = AdamState([p], lr=0.01)
        adam_step([p], [g.copy()], state)
        adam_step([p], [g.copy()], state)

        # independent trace of the textbook update formulas
        q = np.array([0.5, -1.5])
        m = np.zeros(2)
        v = np.zeros(2)
        for t in (1, 2):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            q = q - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p, q, rtol=1e-12)

    def test_non_finite_gradient_raises(self):
        p = np.array([1.0])
        state = AdamState([p], lr=0.001)
        with pytest.raises(FloatingPointError):
            adam_step([p], [np.array([np.nan])], state)

    @pytest.mark.parametrize("g, message", [
        ([1.0, np.nan], "non-finite gradient"),
        ([-np.inf, 1.0], "non-finite gradient"),
        ([1e200, 1.0], "overflowing gradient"),
        ([1e154] * 100, "overflowing gradient"),  # only the sum overflows
    ])
    def test_bad_gradient_raises_before_any_change(self, g, message):
        p = np.ones(len(g))
        state = AdamState([p], lr=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{message}$"):
                adam_step([p], [np.array(g)], state)
        np.testing.assert_array_equal(p, 1.0)
        assert state.step == 0
        assert not state.m[0].any() and not state.v[0].any()


def test_training_is_deterministic_for_fixed_seed():
    X = np.random.default_rng(2).standard_normal((8, 3))
    snapshots = []
    for _ in range(2):
        ae = tiny_ae(seed=42)
        state = AdamState(ae.parameters(), lr=0.001)
        for _ in range(5):
            _, _, grads, _ = loss_and_grads(ae, X)
            adam_step(ae.parameters(), grads, state)
        snapshots.append([p.copy() for p in ae.parameters()])
    for a, b in zip(*snapshots):
        np.testing.assert_array_equal(a, b)


def test_workspace_at_fit_large_shape_holds_under_17_mib():
    # 33.5 MiB while every layer kept its own delta and the soft
    # assignment an (n, k, d) scratch
    ae = Autoencoder.create(8, (128, 64), seed=0)
    tracemalloc.start()
    try:
        ws = Workspace(ae, 4000, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 17 * 2**20
