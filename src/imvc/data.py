"""Dataset ingestion, synthetic generation, model and tree serialization.

Datasets are a JSON manifest plus one headerless numeric CSV per view
(rows aligned across views) and an optional integer labels CSV. Models
are stored in a little-endian, length-prefixed binary container so a
reload is bit-exact.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore
from .dtree import INTERNAL, DecisionTree, TreeNode, feature_attribution
from .pipeline import LabelSet, ModelState, PipelineConfig

MODEL_MAGIC = b"IMVC"
MODEL_VERSION = 1
TREE_SCHEMA_VERSION = 1


class DatasetError(ValueError):
    """Problem loading or validating a dataset."""


@dataclass
class ViewSpec:
    path: str
    dim: int


@dataclass
class DatasetManifest:
    name: str
    n: int
    views: list[ViewSpec]
    labels_path: str | None = None


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise DatasetError(f"manifest not found: {path}")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest {path} is not valid JSON: {exc}")
    try:
        views = [ViewSpec(path=v["path"], dim=int(v["dim"])) for v in raw["views"]]
        manifest = DatasetManifest(name=raw["name"], n=int(raw["n"]),
                                   views=views,
                                   labels_path=raw.get("labels_path"))
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"manifest {path} is missing field: {exc}")
    if not manifest.views:
        raise DatasetError(f"manifest {path} declares no views")
    return manifest


def _load_csv_matrix(path: Path, what: str) -> np.ndarray:
    if not path.exists():
        raise DatasetError(f"{what}: file not found: {path}")
    rows = []
    width = None
    with path.open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DatasetError(
                    f"{what}: ragged row at line {lineno} of {path} "
                    f"({len(cells)} cells, expected {width})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DatasetError(
                    f"{what}: non-numeric cell at line {lineno} of {path}"
                )
    if not rows:
        raise DatasetError(f"{what}: {path} is empty")
    mat = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(mat).all():
        row = int(np.argmin(np.isfinite(mat).all(axis=1)))
        raise DatasetError(
            f"{what}: non-finite value at line {_line_of_row(path, row)} "
            f"of {path}"
        )
    return mat


def _line_of_row(path: Path, row: int) -> int:
    """1-based line number of the row-th (0-based) non-blank line."""
    with path.open() as f:
        nonblank = (lineno for lineno, line in enumerate(f, start=1)
                    if line.strip())
        return next(itertools.islice(nonblank, row, None))


def load_dataset(manifest_path) -> tuple[list[np.ndarray], np.ndarray | None, DatasetManifest]:
    """Aligned view matrices plus optional ground-truth labels."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    views = []
    for i, spec in enumerate(manifest.views):
        mat = _load_csv_matrix(base / spec.path, f"view {i} ({spec.path})")
        if mat.shape != (manifest.n, spec.dim):
            raise DatasetError(
                f"view {i} ({spec.path}): shape {mat.shape} does not match "
                f"declared ({manifest.n}, {spec.dim})"
            )
        views.append(mat)
    truth = None
    if manifest.labels_path is not None:
        truth = load_labels(base / manifest.labels_path)
        if truth.shape != (manifest.n,):
            raise DatasetError(
                f"labels ({manifest.labels_path}): expected {manifest.n} rows "
                f"of one integer, got {truth.shape[0]}"
            )
    return views, truth, manifest


def load_labels(path) -> np.ndarray:
    """One integer per line; a fractional or out-of-range value is an
    error, not truncated."""
    path = Path(path)
    mat = _load_csv_matrix(path, "labels")
    if mat.shape[1] != 1:
        raise DatasetError(f"labels file {path} must have one column")
    col = mat.ravel()
    whole = (col == np.floor(col)) & (np.abs(col) < 2.0**63)
    if not whole.all():
        row = int(np.argmin(whole))
        raise DatasetError(
            f"labels: {col[row]:g} at line {_line_of_row(path, row)} of "
            f"{path} is not a 64-bit integer"
        )
    return col.astype(np.int64)


def write_labels(path, labels) -> None:
    np.savetxt(path, np.asarray(labels, dtype=np.int64), fmt="%d")


def synth_multiview(n_per_cluster: int, k: int, n_views: int, dims,
                    noise: float, seed) -> tuple[list[np.ndarray], np.ndarray]:
    """Gaussian blobs with a shared instance-to-cluster assignment.

    Each view draws its own cluster means, rescaled so the minimum
    pairwise separation is at least 6x the noise scale.
    """
    if k < 2 or n_views < 1 or n_per_cluster < 1:
        raise ValueError("need k >= 2, n_views >= 1, n_per_cluster >= 1")
    if np.isscalar(dims):
        dims = [int(dims)] * n_views
    if len(dims) != n_views:
        raise ValueError("dims must have one entry per view")
    rng = np.random.default_rng(seed)
    truth = np.repeat(np.arange(k), n_per_cluster)
    views = []
    for dim in dims:
        while True:
            means = rng.standard_normal((k, dim))
            dists = np.sqrt(
                np.sum((means[:, None, :] - means[None, :, :]) ** 2, axis=2)
            )
            min_dist = dists[np.triu_indices(k, 1)].min()
            if min_dist > 0:
                break
        target = 6.0 * noise
        if noise > 0 and min_dist < target:
            means *= target / min_dist
        points = means[truth] + noise * rng.standard_normal((truth.size, dim))
        views.append(points)
    return views, truth


def write_dataset(out_dir, views, truth=None, name: str = "synthetic") -> Path:
    """Write view CSVs, optional labels and a manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i, view in enumerate(views):
        fname = f"view_{i}.csv"
        np.savetxt(out_dir / fname, np.asarray(view, dtype=np.float64),
                   delimiter=",", fmt="%.17g")
        specs.append({"path": fname, "dim": int(np.asarray(view).shape[1])})
    manifest = {
        "name": name,
        "n": int(np.asarray(views[0]).shape[0]),
        "views": specs,
    }
    if truth is not None:
        write_labels(out_dir / "labels.csv", truth)
        manifest["labels_path"] = "labels.csv"
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


# ---------------------------------------------------------------------------
# tree export

def tree_to_doc(tree: DecisionTree, view_offsets: list[int]) -> dict:
    nodes = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        nodes.append({
            "id": node.id,
            "kind": node.kind,
            "depth": node.depth,
            "split_feature": node.split_feature,
            "split_value": node.split_value,
            "label": node.label,
            "left": node.left,
            "right": node.right,
            "count": node.count,
        })
    return {
        "schema_version": TREE_SCHEMA_VERSION,
        "k": tree.k,
        "feature_dim": tree.feature_dim,
        "view_offsets": list(view_offsets),
        "root": tree.root,
        "nodes": nodes,
    }


def doc_to_tree(doc: dict) -> DecisionTree:
    """The tree a document describes. A split on a feature outside
    [0, feature_dim), or a missing root or child, is rejected."""
    if doc.get("schema_version") != TREE_SCHEMA_VERSION:
        raise ValueError(f"unsupported tree schema: {doc.get('schema_version')}")
    nodes = {}
    for rec in doc["nodes"]:
        nodes[rec["id"]] = TreeNode(
            id=rec["id"], kind=rec["kind"], depth=rec["depth"],
            split_feature=rec["split_feature"], split_value=rec["split_value"],
            label=rec["label"], left=rec["left"], right=rec["right"],
            count=rec.get("count"),
        )
    feature_dim = doc["feature_dim"]
    if doc["root"] not in nodes:
        raise ValueError(f"tree root {doc['root']} is not a node")
    for node in nodes.values():
        if node.kind != INTERNAL or (
                type(node.split_feature) is int
                and 0 <= node.split_feature < feature_dim
                and node.left in nodes and node.right in nodes):
            continue
        for child in (node.left, node.right):
            if child not in nodes:
                raise ValueError(f"tree node {node.id} has a missing child {child}")
        raise ValueError(f"tree node {node.id} splits on feature "
                         f"{node.split_feature}, outside [0, {feature_dim})")
    return DecisionTree(nodes=nodes, root=doc["root"], k=doc["k"],
                        feature_dim=feature_dim)


def export_tree(tree: DecisionTree, view_offsets: list[int],
                fmt: str = "json") -> str:
    """Tree as a JSON document or a graphviz digraph."""
    if fmt == "json":
        return json.dumps(tree_to_doc(tree, view_offsets), indent=2,
                          sort_keys=True)
    if fmt != "dot":
        raise ValueError(f"unknown export format {fmt!r}")
    lines = ["digraph tree {", "  node [shape=box];"]
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.kind == INTERNAL:
            view, local = feature_attribution(node.split_feature, view_offsets)
            label = f"V{view + 1}[{local}] ≤ {node.split_value:.6g}"
        else:
            label = f"cluster {node.label}"
            if node.count is not None:
                label += f"\\n(n={node.count})"
        lines.append(f'  n{node_id} [label="{label}"];')
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.kind == INTERNAL:
            lines.append(f"  n{node_id} -> n{node.left};")
            lines.append(f"  n{node_id} -> n{node.right};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model serialization

def _write_blob(f, data: bytes) -> None:
    f.write(struct.pack("<Q", len(data)))
    f.write(data)


def _write_json(f, obj) -> None:
    _write_blob(f, json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def _write_array(f, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    _write_json(f, {"dtype": str(arr.dtype), "shape": list(arr.shape)})
    _write_blob(f, arr.tobytes())


class _ModelReader:
    """Reads a model file front to back.

    Every read is checked against the bytes left in the file before it is
    taken, so a damaged length prefix allocates nothing: it is reported as
    a truncation, naming the file.
    """

    def __init__(self, f):
        self.f = f
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def exact(self, size: int) -> bytes:
        if size > self.left:
            raise ValueError(f"truncated model file {self.f.name}: wanted "
                             f"{size} bytes at offset {self.f.tell()}, got "
                             f"{self.left}")
        self.left -= size
        return self.f.read(size)

    def blob(self) -> bytes:
        (length,) = struct.unpack("<Q", self.exact(8))
        return self.exact(length)

    def json(self):
        return json.loads(self.blob().decode())

    def array(self, copy: bool = True) -> np.ndarray:
        """The next array; without `copy`, a read-only view of the file's
        bytes."""
        header = self.json()
        array = np.frombuffer(self.blob(), dtype=np.dtype(header["dtype"]))
        array = array.reshape(header["shape"])
        return array.copy() if copy else array


def _layer_meta(ae: nncore.Autoencoder) -> dict:
    return {
        "view_index": ae.view_index,
        "encoder": [layer.activation for layer in ae.encoder],
        "decoder": [layer.activation for layer in ae.decoder],
    }


def save_model(state: ModelState, path) -> None:
    cfg = state.config
    meta = {
        "config": {
            "k": cfg.k, "e1": cfg.e1, "e2": cfg.e2,
            "max_depth": cfg.max_depth, "min_num": cfg.min_num,
            "lam": cfg.lam, "lr": cfg.lr, "seed": cfg.seed,
            "outer_cycles": cfg.outer_cycles, "standardize": cfg.standardize,
        },
        "view_dims": list(state.view_dims),
        "has_standardizer": state.standardizer is not None,
        "converged": state.converged,
        "cycles_run": state.cycles_run,
        "autoencoders": [_layer_meta(ae) for ae in state.autoencoders],
        "tree": tree_to_doc(state.tree, state.view_offsets),
    }
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", MODEL_VERSION))
        _write_json(f, meta)
        if state.standardizer is not None:
            for mean, std in state.standardizer:
                _write_array(f, mean)
                _write_array(f, std)
        for ae in state.autoencoders:
            for layer in (*ae.encoder, *ae.decoder):
                _write_array(f, layer.w)
                _write_array(f, layer.b)
        for centers in state.centers:
            _write_array(f, centers)
        _write_array(f, state.labels.hard)
        _write_array(f, state.kmeans_labels)


# the metadata fields load_model reads, with their JSON types
_META_FIELDS = {
    "config": (dict, "object"),
    "view_dims": (list, "array"),
    "has_standardizer": (bool, "boolean"),
    "converged": (bool, "boolean"),
    "cycles_run": (int, "integer"),
    "autoencoders": (list, "array"),
    "tree": (dict, "object"),
}


def _damaged(path, what: str) -> ValueError:
    return ValueError(f"damaged model file {path}: metadata {what}")


def _check_meta(meta, path) -> None:
    """Reject model metadata that lacks a field load_model reads or holds
    it as the wrong JSON type, naming the file and the field."""
    if not isinstance(meta, dict):
        raise _damaged(path, "is not a JSON object")
    for name, (kind, json_kind) in _META_FIELDS.items():
        if name not in meta:
            raise _damaged(path, f"field {name!r} is missing")
        if not isinstance(meta[name], kind):
            raise _damaged(path, f"field {name!r} is not a JSON {json_kind}")
    if not all(type(d) is int and d > 0 for d in meta["view_dims"]):
        raise _damaged(path, "field 'view_dims' is not a list of positive "
                             "integers")


def load_model(path) -> ModelState:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path} is not a model file")
        read = _ModelReader(f)
        (version,) = struct.unpack("<I", read.exact(4))
        if version != MODEL_VERSION:
            raise ValueError(f"unsupported model version {version}")
        meta = read.json()
        _check_meta(meta, path)
        try:
            cfg = PipelineConfig(**meta["config"])
        except TypeError as exc:        # a key PipelineConfig lacks or needs
            raise _damaged(path, f"field 'config' is malformed: {exc}") from None
        view_dims = meta["view_dims"]
        standardizer = None
        if meta["has_standardizer"]:
            standardizer = [(read.array(), read.array()) for _ in view_dims]
        autoencoders = []
        for ae_meta in meta["autoencoders"]:
            # Autoencoder copies its layers into one parameter vector, so
            # they are read without a copy of their own
            encoder = [
                nncore.DenseLayer(read.array(copy=False),
                                  read.array(copy=False), act)
                for act in ae_meta["encoder"]
            ]
            decoder = [
                nncore.DenseLayer(read.array(copy=False),
                                  read.array(copy=False), act)
                for act in ae_meta["decoder"]
            ]
            autoencoders.append(nncore.Autoencoder(
                encoder, decoder, view_index=ae_meta["view_index"]))
        centers = [read.array() for _ in view_dims]
        hard = read.array()
        kmeans_labels = read.array()
    tree = doc_to_tree(meta["tree"])
    if tree.feature_dim != sum(view_dims):
        raise ValueError(f"tree has {tree.feature_dim} features, the views "
                         f"{sum(view_dims)}")
    return ModelState(
        config=cfg,
        autoencoders=autoencoders,
        centers=centers,
        tree=tree,
        labels=LabelSet.from_hard(hard, cfg.k),
        kmeans_labels=kmeans_labels,
        view_dims=view_dims,
        standardizer=standardizer,
        converged=meta["converged"],
        cycles_run=meta["cycles_run"],
    )
