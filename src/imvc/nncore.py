"""Dense feed-forward autoencoders with hand-written gradients.

Everything here is plain numpy (float64). Each view gets its own
autoencoder; `forward` runs the encoder alone and returns the embedding
used downstream; the decoder serves only the reconstruction loss.
Losses: sum-of-squares reconstruction, cross-entropy against a one-hot
target through a Student's-t soft assignment, and their weighted sum.

An autoencoder's weights and biases are views into one contiguous
float64 vector, `flat_params`, and a Workspace's gradients are views into
`flat_grads` laid out the same way, so one adam_step call updates every
layer at once; Adam is elementwise, so the floats are those of one call
per array.

An epoch allocates nothing: a Workspace, built for the batch's row count
(and center count when the cross-entropy term is on), holds every
activation, mask, soft-assignment buffer and gradient that
loss_and_grads fills with `out=` operations, and AdamState holds the
scratch that adam_step updates in place. A Workspace carries nothing
from one epoch to the next, so the views training at once borrow theirs
from a WorkspacePool for one epoch at a time, and a pool holds no more
workspaces of a shape than there are threads training. The backward pass
writes each layer's delta over an activation it no longer needs, so only
the output layer has a delta array of its own, and the soft assignment
takes its distances one center at a time through an (n, d) `diff`
buffer. The floats are those of the allocate-per-call formulas,
operation for operation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .kmeans import sq_dists

# clamp for log() inside the cross-entropy; avoids -inf on saturated rows
LOG_EPS = 1e-12

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A ufunc that broadcasts an operand (the bias add, the soft assignment's
# center row) or casts one (the ReLU's bool mask) allocates an
# iterator buffer of numpy's bufsize elements per such operand, 64 KB at
# the default of 8192. Only the mask passes through it, and bool to float
# is exact, so a smaller buffer changes no float and keeps those
# allocations out of the epoch.
_UFUNC_BUFSIZE = 512


class DenseLayer:
    """One fully connected layer: out = x @ w + b, then a ReLU unless it is
    the last layer of its stack (see Autoencoder)."""

    def __init__(self, w, b):
        self.w = w      # (in_dim, out_dim)
        self.b = b      # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[1]


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Autoencoder:
    """Symmetric encoder/decoder stack for one view.

    A layer's place sets its activation: the last of each stack (the
    embedding and the reconstruction) is linear so signed (standardized)
    data can be represented, and the others are ReLU (`relu`, per layer).
    """

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer]):
        # encoder then decoder layers, the order of parameters()
        self.layers = [*encoder, *decoder]
        self.encoder = encoder
        self.decoder = decoder
        self.relu = tuple(i < len(stack) - 1 for stack in (encoder, decoder)
                          for i in range(len(stack)))
        self.flat_params = np.concatenate([p.ravel()
                                           for p in self.parameters()])
        for layer, (w, b) in zip(self.layers, _pairs(self.flat_params,
                                                     self.layers)):
            layer.w, layer.b = w, b

    def __setstate__(self, state):
        # a deep copy copies the vector and each layer's view of it apart
        self.__init__(state["encoder"], state["decoder"])

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @classmethod
    def create(cls, input_dim: int, hidden_dims: tuple[int, ...],
               seed) -> "Autoencoder":
        """Glorot-uniform weights, zero biases, seeded."""
        rng = np.random.default_rng(seed)

        def stack(dims):
            return [DenseLayer(glorot_uniform(fi, fo, rng), np.zeros(fo))
                    for fi, fo in zip(dims, dims[1:])]

        # the encoder draws its weights first
        return cls(stack([input_dim, *hidden_dims]),
                   stack([*hidden_dims[::-1], input_dim]))

    def parameters(self) -> list[np.ndarray]:
        """Weights and biases layer by layer, views into `flat_params`.

        The order is that of a Workspace's gradients.
        """
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out

    @staticmethod
    def _run(layers, relu, x, outs):
        """Fill outs[i] with layer i's x @ w + b, ReLU'd if relu[i]."""
        for layer, is_relu, out in zip(layers, relu, outs):
            np.matmul(x, layer.w, out=out)
            out += layer.b
            if is_relu:
                np.maximum(out, 0.0, out=out)
            x = out
        return x

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Return the embedding Z, the encoder's output."""
        outs = [np.empty((X.shape[0], layer.out_dim)) for layer in self.encoder]
        return self._run(self.encoder, self.relu, X, outs)

    def loss_and_grads(self, X, yind, centers, lam: float, ws: "Workspace"):
        """Losses and exact analytic gradients of Lr + lam * Lce.

        Returns (recon_loss, ce_loss, grads, center_grad) where grads is
        aligned with parameters() and center_grad is None unless the
        cross-entropy term is on (`center_count`).

        Every intermediate array is written into `ws`, a Workspace built
        for this autoencoder, X's row count and the number of centers; the
        returned gradients are arrays of `ws`, so the next call with the
        same `ws` overwrites them.
        """
        with np.errstate():     # restores numpy's buffer size on exit
            np.setbufsize(_UFUNC_BUFSIZE)
            return self._fill(ws, X, yind, centers, lam)

    def _fill(self, ws, X, yind, centers, lam):
        """The body of loss_and_grads: every array written lives in ws."""
        use_ce = ws.k > 0
        layers = self.layers
        ne = len(self.encoder)
        Z = self._run(self.encoder, self.relu, X, ws.out[:ne])
        Xhat = self._run(self.decoder, self.relu[ne:], Z, ws.out[ne:])

        # the output delta first holds the squared residual for the loss
        np.subtract(Xhat, X, out=ws.res)
        recon = float(np.sum(np.square(ws.res, out=ws.delta)))
        np.multiply(ws.res, 2.0, out=ws.delta)

        ce = 0.0
        center_grad = None
        if use_ce:
            a, g = ws.kernel, ws.g
            s = soft_assignment(Z, centers, out=ws.s, kernel=a, diff=ws.diff,
                                rowsum=ws.col)
            ce = cross_entropy_loss(yind, s, out=g)
            # dLce/d(d2_ij) = a_ij * (y_ij - rowsum(y)_i * s_ij)
            np.multiply(np.sum(yind, axis=1, keepdims=True, out=ws.col), s, out=g)
            np.subtract(yind, g, out=g)
            g *= a
            # dZ term: lam * 2 (rowsum(g) Z - g C), added to the decoder's dZ;
            # g C goes through the soft assignment's spent scratch
            dz = np.multiply(np.sum(g, axis=1, keepdims=True, out=ws.col), Z,
                             out=ws.dz)
            dz -= np.matmul(g, centers, out=ws.diff)
            dz *= 2.0
            dz *= lam
            # center gradient: lam * 2 (colsum(g) C - g^T Z)
            center_grad = np.multiply(np.sum(g, axis=0, out=ws.ksum)[:, None],
                                      centers, out=ws.center_grad)
            center_grad -= np.matmul(g.T, Z, out=ws.gtz)
            center_grad *= lam * 2.0

        # act > 0 exactly where pre > 0; the masks are taken before the
        # backward pass overwrites the activations with deltas
        for out, mask in zip(ws.out, ws.mask):
            if mask is not None:
                np.greater(out, 0.0, out=mask)
        grads = ws.grads
        for i in range(len(layers) - 1, -1, -1):
            g = ws.delta if i == len(layers) - 1 else ws.out[i]
            if use_ce and i == ne - 1:
                g += ws.dz
            if ws.mask[i] is not None:
                # multiplying by the bool mask keeps the signed zeros of g
                g *= ws.mask[i]
            x_in = X if i == 0 else ws.out[i - 1]
            np.matmul(x_in.T, g, out=grads[2 * i])
            np.sum(g, axis=0, out=grads[2 * i + 1])
            if i > 0:       # the input layer's delta is never used
                # layer i-1's activation is spent: it served as x_in above
                np.matmul(g, layers[i].w.T, out=ws.out[i - 1])
        return recon, ce, grads, center_grad


def center_count(yind, centers, lam: float) -> int:
    """The number k of centers in the cross-entropy term, 0 when the term
    is off. It is on when targets `yind` come with lam > 0; the feature
    phase, the one caller with targets, passes the centers with them."""
    return centers.shape[0] if yind is not None and lam > 0.0 else 0


def workspace_key(ae: Autoencoder, n: int, k: int) -> tuple:
    """The key a WorkspacePool lends a Workspace by: each layer's weight
    shape, the ReLU flags (which fix where the encoder ends), the row count
    n and the center count k."""
    return tuple(layer.w.shape for layer in ae.layers), ae.relu, n, k


def _pairs(flat: np.ndarray, layers: list[DenseLayer]):
    """(w, b) views of `flat` for each layer, in parameters() order."""
    at = 0
    for layer in layers:
        n_in, n_out = layer.w.shape
        w = flat[at:at + n_in * n_out].reshape(n_in, n_out)
        at += n_in * n_out
        yield w, flat[at:at + n_out]
        at += n_out


class Workspace:
    """Every array one loss_and_grads call writes, reused call after call.

    For an autoencoder, a batch of n rows and k centers (k = 0 when the
    cross-entropy term is off) it holds, per layer, the activation (ReLU
    applied in place over the pre-activation) and the ReLU mask; the
    output layer's delta and the reconstruction residual; the
    soft-assignment and cross-entropy buffers, with an (n, d) `diff`
    scratch; and the gradient arrays loss_and_grads returns, views into
    one vector `flat_grads` laid out as the autoencoder's `flat_params`.
    The backward pass writes each hidden layer's delta over that layer's
    activation once the activation is spent, so the activations after a
    call hold deltas, not the forward pass.
    """

    def __init__(self, ae: Autoencoder, n: int, k: int):
        layers = ae.layers
        self.k = k
        self.out = [np.empty((n, layer.out_dim)) for layer in layers]
        self.mask = [np.empty((n, layer.out_dim), dtype=bool) if relu else None
                     for layer, relu in zip(layers, ae.relu)]
        self.delta = np.empty((n, ae.input_dim))
        self.res = np.empty((n, ae.input_dim))
        self.flat_grads = np.empty_like(ae.flat_params)
        self.grads = [g for pair in _pairs(self.flat_grads, layers)
                      for g in pair]
        if k:
            d = ae.encoder[-1].out_dim
            self.diff = np.empty((n, d))
            self.kernel = np.empty((n, k))
            self.s = np.empty((n, k))
            self.g = np.empty((n, k))
            self.col = np.empty((n, 1))
            self.ksum = np.empty(k)
            self.dz = np.empty((n, d))
            self.center_grad = np.empty((k, d))
            self.gtz = np.empty((k, d))


class WorkspacePool:
    """Workspaces lent for one loss_and_grads call at a time.

    A workspace is built when none of its `workspace_key` is free, so a
    pool never holds more of one key than the most borrowers it had at once.
    """

    def __init__(self):
        self._free: dict[tuple, list[Workspace]] = {}
        self._lock = threading.Lock()

    @contextmanager
    def lend(self, ae: Autoencoder, n: int, k: int):
        key = workspace_key(ae, n, k)
        with self._lock:
            free = self._free.setdefault(key, [])
            ws = free.pop() if free else None
        if ws is None:
            ws = Workspace(ae, n, k)
        try:
            yield ws
        finally:
            with self._lock:
                free.append(ws)


def soft_assignment(Z: np.ndarray, centers: np.ndarray, out: np.ndarray,
                    kernel: np.ndarray, diff: np.ndarray,
                    rowsum: np.ndarray) -> np.ndarray:
    """Student's-t similarity of each embedding to each center, row-normalized.

    With n rows, k centers and d dims, the given arrays are filled
    instead of allocated: `out` (n, k) gets the result s, `kernel` (n, k)
    the unnormalized a = 1 / (1 + |z - c|^2) that the gradient needs, and
    `diff` (n, d) and `rowsum` (n, 1) are scratch. The squared distances
    are k-means' `sq_dists`, taken through `diff`.
    """
    a = sq_dists(Z, centers, scratch=diff, out=kernel)
    a += 1.0
    np.divide(1.0, a, out=a)
    return np.divide(a, np.sum(a, axis=1, keepdims=True, out=rowsum), out=out)


def cross_entropy_loss(yind: np.ndarray, s: np.ndarray,
                       out: np.ndarray) -> float:
    """-sum y_ij log s_ij with probabilities clamped at LOG_EPS, taken
    through `out`, an array shaped like s."""
    terms = np.clip(s, LOG_EPS, None, out=out)
    np.log(terms, out=terms)
    terms *= yind
    return float(-np.sum(terms))


def combined_loss(recon: float, ce: float, lam: float) -> float:
    """Trade-off combination L = Lr + lam * Lce."""
    return recon + lam * ce


class AdamState:
    """Per-parameter Adam moments, the step count and the learning rate.

    `scratch` holds, per parameter, two float arrays of its shape, which
    adam_step reuses instead of allocating.
    """

    def __init__(self, params: list[np.ndarray], lr: float):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step = 0
        self.lr = lr
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]


def check_gradients(grads: list[np.ndarray]) -> None:
    """Raise FloatingPointError("non-finite gradient") on a NaN or ±inf
    entry, else ("overflowing gradient") if a squared norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        for g in grads:
            flat = g.reshape(-1)
            if not np.isfinite(np.dot(flat, flat)):
                if np.isfinite(flat).all():
                    raise FloatingPointError("overflowing gradient")
                raise FloatingPointError("non-finite gradient")


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> None:
    """One in-place Adam update with bias correction.

    check_gradients runs before any parameter or moment changes, so no g g
    below can overflow. Evaluates m = b1 m + (1 - b1) g, v = b2 v + (1 - b2)
    g g and p -= lr (m / bc1) / (sqrt(v / bc2) + eps) in the state's scratch.
    """
    check_gradients(grads)
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v, (t, den) in zip(params, grads, state.m, state.v,
                                    state.scratch):
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=t)
        v += np.multiply(t, g, out=t)
        np.divide(m, bc1, out=t)
        t *= state.lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        t /= den
        p -= t
