"""Dense feed-forward autoencoders with hand-written gradients.

Everything here is plain numpy (float64). Each view gets its own
autoencoder; the encoder output is the embedding used downstream.
Losses: sum-of-squares reconstruction, cross-entropy against a one-hot
target through a Student's-t soft assignment, and their weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ACTIVATIONS = ("relu", "linear")

# clamp for log() inside the cross-entropy; avoids -inf on saturated rows
LOG_EPS = 1e-12


class DimensionError(ValueError):
    """Shapes of inputs/parameters do not line up."""


@dataclass
class DenseLayer:
    """One fully connected layer: out = act(x @ w + b)."""

    w: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)
    activation: str = "relu"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DimensionError(
                f"layer shapes inconsistent: w {self.w.shape}, b {self.b.shape}"
            )

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

    Hidden layers are ReLU; the embedding layer and the reconstruction
    output are linear so signed (standardized) data can be represented.
    """

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer],
                 view_index: int = 0):
        if not encoder or not decoder:
            raise DimensionError("encoder and decoder must be non-empty")
        if decoder[0].in_dim != encoder[-1].out_dim:
            raise DimensionError("decoder input dim must equal embedding dim")
        if decoder[-1].out_dim != encoder[0].in_dim:
            raise DimensionError("decoder output dim must equal input dim")
        for prev, nxt in zip(encoder, encoder[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError("encoder layer dims do not chain")
        for prev, nxt in zip(decoder, decoder[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError("decoder layer dims do not chain")
        self.encoder = encoder
        self.decoder = decoder
        self.view_index = view_index

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def embed_dim(self) -> int:
        return self.encoder[-1].out_dim

    @classmethod
    def create(cls, input_dim: int, hidden_dims: tuple[int, ...] = (128, 64),
               seed=0, view_index: int = 0) -> "Autoencoder":
        """Glorot-uniform weights, zero biases, seeded."""
        rng = np.random.default_rng(seed)
        enc_dims = [input_dim, *hidden_dims]
        dec_dims = [*hidden_dims[::-1], input_dim]
        encoder, decoder = [], []
        for i, (fi, fo) in enumerate(zip(enc_dims, enc_dims[1:])):
            act = "linear" if i == len(enc_dims) - 2 else "relu"
            encoder.append(DenseLayer(glorot_uniform(fi, fo, rng), np.zeros(fo), act))
        for i, (fi, fo) in enumerate(zip(dec_dims, dec_dims[1:])):
            act = "linear" if i == len(dec_dims) - 2 else "relu"
            decoder.append(DenseLayer(glorot_uniform(fi, fo, rng), np.zeros(fo), act))
        return cls(encoder, decoder, view_index=view_index)

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order (shared with gradients)."""
        out = []
        for layer in (*self.encoder, *self.decoder):
            out.append(layer.w)
            out.append(layer.b)
        return out

    def _run(self, layers, x, caches):
        for layer in layers:
            pre = x @ layer.w + layer.b
            caches.append((x, pre, layer))
            x = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        return x

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (embedding Z, reconstruction Xhat)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected input with {self.input_dim} features, got {X.shape}"
            )
        Z = self._run(self.encoder, X, [])
        Xhat = self._run(self.decoder, Z, [])
        return Z, Xhat

    def loss_and_grads(self, X, yind=None, centers=None, lam: float = 0.0):
        """Losses and exact analytic gradients of Lr + lam * Lce.

        Returns (recon_loss, ce_loss, grads, center_grad) where grads is
        aligned with parameters() and center_grad is None unless centers
        are supplied with lam > 0.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected input with {self.input_dim} features, got {X.shape}"
            )
        enc_caches: list = []
        dec_caches: list = []
        Z = self._run(self.encoder, X, enc_caches)
        Xhat = self._run(self.decoder, Z, dec_caches)

        recon = float(np.sum((Xhat - X) ** 2))

        ce = 0.0
        dZ_ce = None
        center_grad = None
        if lam > 0.0 and yind is not None:
            if centers is None:
                raise ValueError("cross-entropy loss requires cluster centers")
            yind = np.asarray(yind, dtype=np.float64)
            diff = Z[:, None, :] - centers[None, :, :]        # (N, K, d)
            d2 = np.sum(diff * diff, axis=2)                  # (N, K)
            a = 1.0 / (1.0 + d2)
            s = a / np.sum(a, axis=1, keepdims=True)
            ce = float(-np.sum(yind * np.log(np.clip(s, LOG_EPS, None))))
            # dLce/d(d2_ij) = a_ij * (y_ij - rowsum(y)_i * s_ij)
            g = a * (yind - yind.sum(axis=1, keepdims=True) * s)
            dZ_ce = 2.0 * (g.sum(axis=1, keepdims=True) * Z - g @ centers)
            center_grad = lam * 2.0 * (g.sum(axis=0)[:, None] * centers - g.T @ Z)

        def backprop(caches, grad_out):
            grads_wb = []
            g = grad_out
            for x_in, pre, layer in reversed(caches):
                if layer.activation == "relu":
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

    def backward(self, X, yind=None, centers=None, lam: float = 0.0):
        """Gradients only (see loss_and_grads)."""
        _, _, grads, center_grad = self.loss_and_grads(X, yind, centers, lam)
        return grads, center_grad


def reconstruction_loss(Xhat: np.ndarray, X: np.ndarray) -> float:
    """Sum over instances of the squared reconstruction residual."""
    Xhat = np.asarray(Xhat, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if Xhat.shape != X.shape:
        raise DimensionError(f"shape mismatch: {Xhat.shape} vs {X.shape}")
    return float(np.sum((Xhat - X) ** 2))


def soft_assignment(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Student's-t similarity of each embedding to each center, row-normalized."""
    Z = np.asarray(Z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("need at least one cluster center")
    if Z.shape[1] != centers.shape[1]:
        raise DimensionError(
            f"embedding dim {Z.shape[1]} != center dim {centers.shape[1]}"
        )
    diff = Z[:, None, :] - centers[None, :, :]
    a = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    return a / np.sum(a, axis=1, keepdims=True)


def cross_entropy_loss(yind: np.ndarray, s: np.ndarray) -> float:
    """-sum y_ij log s_ij with probabilities clamped at LOG_EPS."""
    yind = np.asarray(yind, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if yind.shape != s.shape:
        raise DimensionError(f"shape mismatch: {yind.shape} vs {s.shape}")
    return float(-np.sum(yind * np.log(np.clip(s, LOG_EPS, None))))


def combined_loss(recon: float, ce: float, lam: float) -> float:
    """Trade-off combination L = Lr + lam * Lce."""
    if lam < 0:
        raise ValueError("trade-off coefficient must be non-negative")
    return recon + lam * ce


@dataclass
class AdamState:
    """Per-parameter Adam moments plus shared hyperparameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, params: list[np.ndarray], lr: float = 0.001,
               beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8) -> "AdamState":
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> None:
    """One in-place Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("params/grads/state lengths differ")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in adam_step")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
