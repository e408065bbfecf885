"""End-to-end orchestration: pretraining, pseudo-labels, tree, joint cycles.

Initialization pretrains one autoencoder per view on reconstruction,
runs k-means on the concatenated embeddings and fits a Gini tree on the
concatenated original features. Each joint cycle then (a) retrains the
autoencoders against the tree's one-hot outputs through the soft
assignment and (b) refreshes pseudo-labels and re-optimizes the tree.
The tree's leaf outputs are the model's final cluster assignment.

The views' autoencoders share no state, so both pretraining and the
feature phase train them as jobs on `parallel.run`'s scheduler, one step
per epoch: the workers take the views' epochs in turn, so three views on
two threads keep both busy to the end, and results are gathered in view
order. Every view keeps its own parameters and Adam state and borrows a
workspace from the phase's WorkspacePool for each epoch, so each thread
holds at most one workspace of each shape (views of different widths need
different shapes) and the floats do not depend on the worker count. The
feature phase seeds every view's centers before any view trains. `fit`
holds OpenBLAS at one thread, and there the views get a thread per usable
CPU, at most one per view; where the bundled OpenBLAS cannot be set, one
worker steps the views in turn.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import dtree, metrics, nncore, parallel, tao
from .kmeans import kmeans as run_kmeans

EMBED_DIMS = (128, 64)

# each count field of PipelineConfig and its least value
_COUNT_MINIMA = {"k": 2, "e1": 1, "e2": 1, "max_depth": 1, "min_num": 1,
                 "seed": 0, "outer_cycles": 0}


@dataclass
class PipelineConfig:
    k: int
    e1: int = 200
    e2: int = 400
    max_depth: int = 10
    min_num: int = 10
    lam: float = 0.1
    lr: float = 0.001
    seed: int = 0
    outer_cycles: int = 5
    standardize: bool = False

    def validate(self) -> None:
        """Reject a field of the wrong type or out of range, naming it:
        counts are ints (not bools), lam and lr finite numbers."""
        for name, least in _COUNT_MINIMA.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        for name in ("lam", "lr"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {value!r}")
        if self.lam < 0:
            raise ValueError("trade-off coefficient must be non-negative")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be a boolean, "
                             f"got {self.standardize!r}")


@dataclass
class LabelSet:
    hard: np.ndarray         # (n,) ints in [0, k)


@dataclass
class ServedModel:
    """What `predict`, `explain` and a model file hold: the tree and how
    the views are prepared for it."""
    tree: dtree.DecisionTree
    view_dims: list[int]
    standardizer: list[tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def view_offsets(self) -> list[int]:
        return list(itertools.accumulate(self.view_dims[:-1], initial=0))

    def preprocess(self, views: list[np.ndarray]) -> list[np.ndarray]:
        """The views as float64, checked and standardized as in training:
        as many as in training, each as wide."""
        return standardize(_check_views(views, self.view_dims),
                           self.standardizer)

    def predict(self, views: list[np.ndarray]) -> np.ndarray:
        """Cluster of every row: the tree routes the views in place."""
        return self.tree.predict_views(self.preprocess(views))


@dataclass(kw_only=True)
class ModelState(ServedModel):
    """The served model plus the config it was fit with and the training
    state `fit` leaves behind."""
    config: PipelineConfig
    converged: bool = False
    cycles_run: int = 0
    autoencoders: list[nncore.Autoencoder]
    centers: list[np.ndarray]                 # per view, (k, embed_dim)
    labels: LabelSet                          # tree outputs on training data
    kmeans_labels: np.ndarray                 # latest pseudo-labels
    loss_history: dict[str, list] = field(default_factory=dict)


def _check_views(views: list[np.ndarray],
                 view_dims: list[int] | None = None) -> list[np.ndarray]:
    """The views as float64 arrays, each checked to be real numbers, 2-D,
    as long as view 0 and finite; the errors name the view and row.

    With `view_dims` there must be that many views, each as wide; without,
    there must be at least one, each at least one column wide.
    """
    views = [_as_float(view, v) for v, view in enumerate(views)]
    if view_dims is None and not views:
        raise ValueError("expected at least one view, got none")
    if view_dims is not None and len(views) != len(view_dims):
        raise ValueError(f"expected {len(view_dims)} views, got {len(views)}")
    for v, view in enumerate(views):
        dim = "features" if view_dims is None else view_dims[v]
        if view.ndim != 2:
            raise ValueError(
                f"view {v} has shape {view.shape}, expected (rows, {dim})"
            )
        if view.shape[0] != views[0].shape[0]:
            raise ValueError(
                f"view {v} has {view.shape[0]} rows, "
                f"expected {views[0].shape[0]}"
            )
        if view_dims is None and view.shape[1] < 1:
            raise ValueError(f"view {v} has no features, expected at least 1")
        if view_dims is not None and view.shape[1] != dim:
            raise ValueError(
                f"view {v} has {view.shape[1]} features, expected {dim}"
            )
        _check_finite(view, v)
    return views


def _as_float(view, v: int) -> np.ndarray:
    """View v as a float64 array, converted as `np.asarray` converts it; a
    view numpy cannot convert, or a complex one, fails naming the view."""
    try:
        view = np.asarray(view)
        if view.dtype.kind != "c":
            return view.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"view {v} is not an array of numbers: {exc}") from exc
    raise ValueError(f"view {v} is complex, expected real numbers")


def _check_finite(view: np.ndarray, v: int) -> None:
    """Reject NaN and +-inf in view v, naming the first bad row."""
    # A finite sum means every entry is finite, and it takes no (n, d)
    # temporary; only an infinite or NaN sum, which finite entries can also
    # give by overflow, needs the scan. A single row (`explain`) skips the
    # sum: searching its isfinite mask's bytes for a zero costs less than
    # entering np.errstate or reducing the mask with .all(), at any width.
    if view.shape[0] == 1:
        if b"\0" not in np.isfinite(view).tobytes():
            return
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(view.sum()):
                return
    finite = np.isfinite(view).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"view {v} has a non-finite value in row {row}")


def fit_standardizer(view: np.ndarray,
                     v: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population std of view v; constant features get
    std 1. A mean or std past the float range is a FloatingPointError."""
    with _named(v, "standardization"):
        mean = view.mean(axis=0)
        std = view.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise FloatingPointError("overflowing mean or std")
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def standardize(views: list[np.ndarray],
                standardizer: list[tuple[np.ndarray, np.ndarray]] | None
                ) -> list[np.ndarray]:
    """The views z-scored by `standardizer`; as they are when it is None."""
    if standardizer is None:
        return views
    return [(view - mean) / std
            for view, (mean, std) in zip(views, standardizer)]


def _view_workers(n_views: int) -> int:
    """Threads for the views: one per usable CPU, at most one per view,
    while OpenBLAS is held at one thread; otherwise one."""
    if not parallel.pinned.get():
        return 1
    return max(1, min(n_views, parallel.usable_cpus()))


def _map_views(job, n_views: int) -> list:
    """Run the generator job(v) of every view v on the scheduler.

    Results come in view order; the lowest view's exception is raised.
    """
    return parallel.run([job(v) for v in range(n_views)],
                        _view_workers(n_views))


@contextmanager
def _named(view: int, where: str):
    """numpy's error state with the caller's "warn" set to "ignore"; a
    FloatingPointError raised inside is raised again naming the view and
    where it happened."""
    with np.errstate(**{kind: "ignore" if mode == "warn" else mode
                        for kind, mode in np.geterr().items()}):
        try:
            yield
        except FloatingPointError as exc:
            raise FloatingPointError(f"view {view}: {exc} in {where}") from exc


def _train_epochs(ae: nncore.Autoencoder, X: np.ndarray, epochs: int,
                  lr: float, workspaces: nncore.WorkspacePool, yind=None,
                  centers=None, lam: float = 0.0, *, view: int,
                  phase: str = "pretraining"):
    """Train one view, yielding after each epoch; returns the loss history.

    When the cross-entropy term is on (`nncore.center_count`), the centers
    train with the autoencoder; otherwise they are not touched.
    Each epoch borrows a workspace from `workspaces` and gives it back
    before the yield. Each epoch runs under `_named`: a non-finite
    gradient, then a non-finite loss, raises FloatingPointError naming the
    view, the phase and the 1-based epoch before any parameter changes, and
    so does an overflow that a caller's `np.errstate` raises.
    """
    k = nncore.center_count(yind, centers, lam)     # 0: no cross-entropy
    params = [ae.flat_params, centers] if k else [ae.flat_params]
    adam = nncore.AdamState(params, lr)
    history = []
    for epoch in range(1, epochs + 1):
        with (workspaces.lend(ae, X.shape[0], k) as ws,
              _named(view, f"{phase} epoch {epoch}")):
            recon, ce, _, cgrad = ae.loss_and_grads(
                X, yind=yind, centers=centers, lam=lam, ws=ws)
            grads = [ws.flat_grads, cgrad] if k else [ws.flat_grads]
            loss = nncore.combined_loss(recon, ce, lam)
            if not np.isfinite(loss):     # a bad gradient is named first
                nncore.check_gradients(grads)
                raise FloatingPointError("non-finite loss")
            nncore.adam_step(params, grads, adam)
        history.append(loss)
        yield
    return history


def init_centers(Z: np.ndarray, hard: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-label embedding means; empty labels fall back to the global
    mean plus small seeded jitter."""
    centers = np.empty((k, Z.shape[1]))
    global_mean = Z.mean(axis=0)
    jitter_scale = 1e-3 * float(Z.std())
    for j in range(k):
        members = hard == j
        if np.any(members):
            centers[j] = Z[members].mean(axis=0)
        else:
            centers[j] = global_mean + jitter_scale * rng.standard_normal(Z.shape[1])
    return centers


def _pseudo_labels(autoencoders: list[nncore.Autoencoder],
                   views: list[np.ndarray], k: int, seed) -> np.ndarray:
    """k-means labels of the views' embeddings side by side; the embedding
    is freed on return, before the tree step."""
    Z = np.hstack([ae.forward(view) for ae, view in zip(autoencoders, views)])
    return run_kmeans(Z, k, seed).labels


def initialize(views: list[np.ndarray], config: PipelineConfig) -> ModelState:
    """Algorithmic warm start: pretrain, pseudo-label, build the tree."""
    config.validate()
    views = _check_views(views)
    n = views[0].shape[0]
    if config.k > n:
        raise ValueError(f"k = {config.k} exceeds the {n} instances")
    view_dims = [v.shape[1] for v in views]
    standardizer = None
    if config.standardize:
        standardizer = [fit_standardizer(view, v)
                        for v, view in enumerate(views)]
    views = standardize(views, standardizer)

    autoencoders = [
        nncore.Autoencoder.create(dim, EMBED_DIMS, seed=[config.seed, v, 1])
        for v, dim in enumerate(view_dims)
    ]
    workspaces = nncore.WorkspacePool()
    pretrain_losses = _map_views(
        lambda v: _train_epochs(autoencoders[v], views[v], config.e1,
                                config.lr, workspaces, view=v),
        len(views))
    del workspaces      # freed before k-means allocates its buffers

    kmeans_labels = _pseudo_labels(autoencoders, views, config.k,
                                   [config.seed, 100])
    X = np.hstack(views)
    tree = dtree.build_tree(X, kmeans_labels, config.max_depth, config.min_num,
                            k=config.k)
    labels = LabelSet(tree.predict_batch(X))
    centers = [np.zeros((config.k, EMBED_DIMS[-1])) for _ in views]
    return ModelState(
        config=config,
        autoencoders=autoencoders,
        centers=centers,
        tree=tree,
        labels=labels,
        kmeans_labels=kmeans_labels,
        view_dims=view_dims,
        standardizer=standardizer,
        loss_history={"pretrain": pretrain_losses, "feature": [], "tree": []},
    )


def feature_phase(state: ModelState, views: list[np.ndarray],
                  cycle: int) -> None:
    """Retrain each view against the tree's one-hot outputs (Lr + lam*Lce)."""
    config = state.config
    yhard = state.labels.hard       # set by initialize and tree_phase
    yind = np.eye(config.k)[yhard]

    def seed(v):
        # an overflow here leaves the centers non-finite, and training names
        # it; one that the caller's error state raises is named here
        rng = np.random.default_rng([config.seed, 200, cycle, v])
        with _named(v, f"cycle {cycle + 1} feature-phase seeding"):
            Z = state.autoencoders[v].forward(views[v])
            return init_centers(Z, yhard, config.k, rng)

    # every view is seeded before any trains, so that forward's fresh
    # activations are never allocated beside the lent workspaces
    state.centers = _map_views(lambda v: parallel.once(seed, v), len(views))
    workspaces = nncore.WorkspacePool()
    phase = f"cycle {cycle + 1} feature-phase"
    traces = _map_views(
        lambda v: _train_epochs(state.autoencoders[v], views[v], config.e2,
                                config.lr, workspaces, yind=yind,
                                centers=state.centers[v], lam=config.lam,
                                view=v, phase=phase),
        len(views))
    state.loss_history["feature"].append(traces)


def tree_phase(state: ModelState, views: list[np.ndarray],
               cycle: int) -> None:
    """Refresh pseudo-labels from the embeddings and re-optimize the tree.

    k-means numbers its clusters arbitrarily, so its labels are first
    renumbered to best match the tree's current labels; leaf ids then stay
    put when the partition does. The tree's disagreement with those
    pseudo-labels is appended to `loss_history["tree"]`.
    """
    config = state.config
    k = config.k
    km = _pseudo_labels(state.autoencoders, views, k,
                        [config.seed, 300, cycle])
    table = np.bincount(km * k + state.labels.hard, minlength=k * k).reshape(k, k)
    perm = metrics.hungarian(-table)
    state.kmeans_labels = perm[km]
    X = np.hstack(views)
    tao.optimize_tree(state.tree, X, state.kmeans_labels)
    state.labels = LabelSet(state.tree.predict_batch(X))
    state.loss_history["tree"].append(
        int(np.sum(state.labels.hard != state.kmeans_labels))
    )


@parallel.one_blas_thread()
def fit(views: list[np.ndarray], config: PipelineConfig) -> ModelState:
    """Initialization followed by alternating joint-optimization cycles.

    Runs at most `config.outer_cycles` cycles and stops early once the
    partition stops changing, with k-means ids aligned to the tree's, so
    an unchanged partition gives identical hard labels. The cycles train
    on the views as `ServedModel.preprocess` prepares them for serving.
    numpy's bundled OpenBLAS runs at one thread until `fit` returns; the
    count is process-wide, so the caller's other threads see it too.
    """
    state = initialize(views, config)
    views = state.preprocess(views)
    prev = state.labels.hard.copy()
    for cycle in range(config.outer_cycles):
        feature_phase(state, views, cycle=cycle)
        tree_phase(state, views, cycle=cycle)
        state.cycles_run = cycle + 1
        if np.array_equal(state.labels.hard, prev):
            state.converged = True
            break
        prev = state.labels.hard.copy()
    return state


@dataclass
class ExplanationStep:
    feature: int          # global feature index
    view: int             # 0-based view index
    local_feature: int    # index within the view
    threshold: float
    went_left: bool


def explain(state: ServedModel, x_views: list[np.ndarray]) -> tuple[list[ExplanationStep], int]:
    """Root-to-leaf decision path for one instance, with view attribution.

    `x_views` holds one row per view, as a 1-D array or a (1, d) view.
    """
    x_views = [_as_float(view, v) for v, view in enumerate(x_views)]
    # a row is one instance, and so is a number for a one-column view
    x_views = [view.reshape(1, -1) if view.ndim < 2 else view
               for view in x_views]
    for v, view in enumerate(x_views):
        if view.shape[0] != 1:
            raise ValueError(
                f"view {v} has {view.shape[0]} rows; explain takes one instance"
            )
    row = np.concatenate(state.preprocess(x_views), axis=1)[0]
    tree = state.tree
    offsets = state.view_offsets
    # one pass over the walk: a node's step is made once the next node, and
    # so the branch taken, is known. `path` reads Python floats from a
    # memoryview faster than numpy scalars from the array, and the
    # memoryview copies nothing at any width.
    nodes = tree.path(memoryview(row))
    node_id = next(nodes)
    steps = []
    for nxt in nodes:
        feature = tree.feature[node_id]
        view, local = dtree.feature_attribution(feature, offsets)
        steps.append(ExplanationStep(feature, view, local,
                                     tree.threshold[node_id],
                                     nxt == tree.left[node_id]))
        node_id = nxt
    return steps, tree.label[node_id]
