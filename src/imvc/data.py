"""Dataset ingestion, synthetic generation, model and tree serialization.

Datasets are a JSON manifest plus one headerless numeric CSV per view
(rows aligned across views) and an optional integer labels CSV. A model
file holds what serving reads: a little-endian header (magic, version,
sha256 and length of the payload) and one JSON payload with the config,
the view widths, the standardizer and the tree. JSON writes each float
as its shortest round-tripping repr, so a reload is bit-exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
import os
import reprlib
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dtree import HOLE, DecisionTree, feature_attribution
from .pipeline import PipelineConfig, ServedModel, _check_views

MODEL_MAGIC = b"IMVC"
MODEL_VERSION = 2
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


# a JSON field's test and what it expects; no integer test passes a boolean
_INT64_END = 1 << 63
_STRING = (lambda v: type(v) is str, "a string")
_OBJECT = (lambda v: type(v) is dict, "an object")
_BOOLEAN = (lambda v: type(v) is bool, "a boolean")
_ARRAY = (lambda v: type(v) is list, "an array")
_ARRAY_OR_NULL = (lambda v: v is None or type(v) is list, "an array or null")
_NON_EMPTY_ARRAY = (lambda v: type(v) is list and v != [], "a non-empty array")
_COUNT = (lambda v: type(v) is int and v > 0, "a positive integer")
_COUNTS = (lambda v: type(v) is list and v != [] and all(map(_COUNT[0], v)),
           "a non-empty array of positive integers")
_INT64 = (lambda v: type(v) is int and 0 <= v < _INT64_END,
          "an integer in [0, 2**63)")


def _field(obj, where: str, name: str, check):
    """obj[name] if obj is a JSON object holding it and it passes `check`;
    else a ValueError naming `where`, the field and a wrong value."""
    ok, expected = check
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if name not in obj:
        raise ValueError(f"{where} is missing field {name!r}")
    if not ok(obj[name]):
        raise ValueError(f"{where} field {name!r} is "
                         f"{reprlib.repr(obj[name])}, expected {expected}")
    return obj[name]


def load_manifest(path) -> DatasetManifest:
    """The manifest at `path`, each field checked for its JSON type."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise DatasetError(f"manifest not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"manifest {path} is not valid JSON: {exc}")
    where = f"manifest {path}"
    try:
        name = _field(raw, where, "name", _STRING)
        n = _field(raw, where, "n", _COUNT)
        views = []
        for i, spec in enumerate(_field(raw, where, "views", _NON_EMPTY_ARRAY)):
            at = f"{where} view {i}"
            views.append(ViewSpec(path=_field(spec, at, "path", _STRING),
                                  dim=_field(spec, at, "dim", _COUNT)))
        labels_path = None
        if raw.get("labels_path") is not None:
            labels_path = _field(raw, where, "labels_path", _STRING)
    except ValueError as exc:
        raise DatasetError(str(exc)) from None
    return DatasetManifest(name=name, n=n, views=views,
                           labels_path=labels_path)


def _read_csv(source) -> np.ndarray:
    """The float matrix numpy's C reader parses from `source`, a path or a
    list of lines: comma-separated cells, no quotes, no comments."""
    return np.loadtxt(source, delimiter=",", comments=None, ndmin=2,
                      dtype=np.float64)


def _data_lines(path: Path, what: str) -> list[str]:
    """The non-blank lines of `path`, once each has the first one's width
    and parses; otherwise a DatasetError naming the first line that does
    not. numpy's own errors count data rows, not lines; a byte the locale
    cannot decode stays in its line, as a cell numpy does not parse."""
    lines = []
    width = None
    with path.open(errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            cells = line.count(",") + 1
            if width is None:
                width = cells
            elif cells != width:
                raise DatasetError(
                    f"{what}: ragged row at line {lineno} of {path} "
                    f"({cells} cells, expected {width})"
                )
            try:
                _read_csv([line])
            except ValueError:
                raise DatasetError(
                    f"{what}: non-numeric cell at line {lineno} of {path}"
                ) from None
            lines.append(line)
    return lines


def _load_csv_matrix(path: Path, what: str) -> np.ndarray:
    if not path.exists():
        raise DatasetError(f"{what}: file not found: {path}")
    with warnings.catch_warnings():
        # numpy warns of input without data; the size test below reports it
        warnings.simplefilter("ignore", UserWarning)
        try:
            mat = _read_csv(path)
        except ValueError:
            # a ragged row, a bad cell, or a whitespace-only line, which
            # numpy reads as a row of one cell
            mat = _read_csv(_data_lines(path, what))
    if mat.size == 0:
        raise DatasetError(f"{what}: {path} is empty")
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
    whole = _is_int64(col)
    if not whole.all():
        row = int(np.argmin(whole))
        raise DatasetError(
            f"labels: {col[row]:g} at line {_line_of_row(path, row)} of "
            f"{path} is not a 64-bit integer"
        )
    return col.astype(np.int64)


def _is_int64(col: np.ndarray) -> np.ndarray:
    """Which floats of `col` cast to int64 without truncation."""
    return (col == np.floor(col)) & (np.abs(col) < 2.0**63)


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
    if not 0 <= noise < math.inf:       # NaN fails too
        raise ValueError(f"noise is {noise}, expected a finite number >= 0")
    if np.isscalar(dims):
        dims = [dims] * n_views
    if len(dims) != n_views:
        raise ValueError("dims must have one entry per view")
    for v, dim in enumerate(dims):
        if not isinstance(dim, numbers.Integral):
            raise ValueError(f"view {v} has width {dim}, expected an integer")
        if dim < 1:
            # a view without features has no distinct means to draw
            raise ValueError(f"view {v} has {dim} features, expected at "
                             f"least 1")
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


def write_dataset(out_dir, views, truth=None) -> Path:
    """Write view CSVs, optional labels and a manifest; returns its path.
    Views that fit rejects, no rows, or truth other than one 64-bit integer
    per row raise ValueError before anything is written."""
    views = _check_views(views)
    n = views[0].shape[0]
    if n == 0:
        raise ValueError("the views have no rows, expected at least 1")
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64)
        if truth.shape != (n,) or not _is_int64(truth).all():
            raise ValueError(f"truth is {reprlib.repr(truth.tolist())}, "
                             f"expected {n} 64-bit integers")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i, view in enumerate(views):
        fname = f"view_{i}.csv"
        np.savetxt(out_dir / fname, view, delimiter=",", fmt="%.17g")
        specs.append({"path": fname, "dim": view.shape[1]})
    manifest = {"name": "synthetic", "n": n, "views": specs}
    if truth is not None:
        write_labels(out_dir / "labels.csv", truth)
        manifest["labels_path"] = "labels.csv"
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


# ---------------------------------------------------------------------------
# tree export

# a node record's fields, in the order a missing one is looked for
_node_fields = operator.itemgetter("id", "kind", "depth", "split_feature",
                                   "split_value", "label", "left", "right",
                                   "count")
# The tree's arrays are indexed by node id, so a document naming an id
# past this is rejected rather than allocated, and save_model writes no
# such file. build_tree numbers fewer than 2n nodes for n rows, so a model
# fit on fewer than 2**19 rows always saves.
_NODE_ID_END = 1 << 20


def tree_to_doc(tree: DecisionTree, view_offsets: list[int]) -> dict:
    nodes = []
    for node_id in tree.ids():
        feature = tree.feature[node_id]
        internal = feature >= 0
        nodes.append({
            "id": node_id,
            "kind": "internal" if internal else "leaf",
            "depth": tree.depth[node_id],
            "split_feature": feature if internal else None,
            "split_value": tree.threshold[node_id] if internal else None,
            "label": None if internal else tree.label[node_id],
            "left": tree.left[node_id] if internal else None,
            "right": tree.right[node_id] if internal else None,
            "count": tree.count[node_id],
        })
    return {
        "schema_version": TREE_SCHEMA_VERSION,
        "k": tree.k,
        "feature_dim": tree.feature_dim,
        "view_offsets": list(view_offsets),
        "root": tree.root,
        "nodes": nodes,
    }


def _bad_node(node_id: int, field: str, what: str) -> ValueError:
    return ValueError(f"tree node {node_id} field {field!r} {what}")


def _records_by_id(records: list) -> dict[int, tuple]:
    """Each node record's fields by its id. A record that is not an object
    or lacks a field, or an id that is not a unique integer in
    [0, _NODE_ID_END), is rejected, naming the record."""
    by_id = {}
    for i, rec in enumerate(records):
        try:
            fields = _node_fields(rec)
        except TypeError:
            raise ValueError(f"tree node #{i} is not an object") from None
        except KeyError as exc:
            raise ValueError(f"tree node {rec.get('id', f'#{i}')} lacks "
                             f"field {exc}") from None
        node_id = fields[0]
        if type(node_id) is not int or not 0 <= node_id < _NODE_ID_END:
            raise ValueError(f"tree node #{i} field 'id' is not an integer "
                             f"in [0, {_NODE_ID_END})")
        if node_id in by_id:
            raise _bad_node(node_id, "id", "is a duplicate")
        by_id[node_id] = fields
    return by_id


def _node_row(fields: tuple, depth: int, k: int, feature_dim: int,
              by_id: dict) -> tuple:
    """The row (feature, threshold, left, right, label, count, depth) of a
    node record's `fields`, which the walk from the root reaches at
    `depth`, in the one form tree_to_doc writes. A JSON integer is a Python
    int, and a boolean is not one."""
    node_id, kind, rec_depth, feature, threshold, label, left, right, \
        count = fields
    if rec_depth != depth or type(rec_depth) is not int:
        raise _bad_node(node_id, "depth", f"is {rec_depth!r}, but the node "
                                          f"is {depth} below the root")
    if type(count) is not int or not 0 <= count < _INT64_END:
        raise _bad_node(node_id, "count", "is not an integer in [0, 2**63)")
    if kind == "leaf":
        if type(label) is not int or not 0 <= label < k:
            raise _bad_node(node_id, "label", f"is not an integer in [0, {k})")
        for field, value in (("split_feature", feature), ("left", left),
                             ("split_value", threshold), ("right", right)):
            if value is not None:
                raise _bad_node(node_id, field, "is not null at a leaf")
        return -1, 0.0, -1, -1, label, count, depth
    if kind != "internal":
        raise _bad_node(node_id, "kind", 'is not "internal" or "leaf"')
    if label is not None:
        raise _bad_node(node_id, "label", "is not null at an internal node")
    if type(feature) is not int:
        raise _bad_node(node_id, "split_feature", "is not an integer")
    if not 0 <= feature < feature_dim:
        raise ValueError(f"tree node {node_id} splits on feature {feature}, "
                         f"outside [0, {feature_dim})")
    if type(threshold) is not float or not math.isfinite(threshold):
        raise _bad_node(node_id, "split_value", "is not a finite float")
    for field, child in (("left", left), ("right", right)):
        if type(child) is not int or child not in by_id:
            raise ValueError(f"tree node {node_id} has a missing child "
                             f"{child!r} in field {field!r}")
    return feature, threshold, left, right, -1, count, depth


def doc_to_tree(doc: dict) -> DecisionTree:
    """The tree a document describes, each field checked as it is read.

    A ValueError names the node and field at fault: a missing field or
    one of the wrong JSON type, a kind other than "internal" or "leaf", a
    split on a feature outside [0, feature_dim), a leaf label outside
    [0, k), a depth other than the node's, a child that is not a node, a
    duplicate id, or a node that the walk from the root reaches twice
    (a cycle or a shared child) or never.
    """
    if doc.get("schema_version") != TREE_SCHEMA_VERSION:
        raise ValueError(f"unsupported tree schema: {doc.get('schema_version')}")
    k, feature_dim, root = (_field(doc, "tree", name, _INT64)
                            for name in ("k", "feature_dim", "root"))
    records = _field(doc, "tree", "nodes", _ARRAY)
    by_id = _records_by_id(records)
    if root not in by_id:
        raise ValueError(f"tree root {root} is not a node")
    rows = [HOLE] * (max(by_id) + 1)
    stack = [(root, 0)]
    while stack:
        node_id, depth = stack.pop()
        if rows[node_id] is not HOLE:
            raise ValueError(f"tree node {node_id} is reached twice from "
                             f"the root")
        row = rows[node_id] = _node_row(by_id[node_id], depth, k,
                                        feature_dim, by_id)
        if row[0] >= 0:
            stack += ((row[2], depth + 1), (row[3], depth + 1))
    if len(rows) - rows.count(HOLE) < len(by_id):
        unreached = min(i for i in by_id if rows[i] is HOLE)
        raise ValueError(f"tree node {unreached} is not reached from the "
                         f"root")
    return DecisionTree(rows, root=root, k=k, feature_dim=feature_dim)


def export_tree(tree: DecisionTree, view_offsets: list[int],
                fmt: str) -> str:
    """Tree as a JSON document or a graphviz digraph."""
    if fmt == "json":
        return json.dumps(tree_to_doc(tree, view_offsets), indent=2,
                          sort_keys=True)
    if fmt != "dot":
        raise ValueError(f"unknown export format {fmt!r}")
    lines = ["digraph tree {", "  node [shape=box];"]
    edges = []
    for node_id in tree.ids():
        feature = tree.feature[node_id]
        if feature >= 0:
            view, local = feature_attribution(feature, view_offsets)
            threshold = tree.threshold[node_id]
            label = f"V{view + 1}[{local}] ≤ {threshold:.6g}"
            edges += [f"  n{node_id} -> n{tree.left[node_id]};",
                      f"  n{node_id} -> n{tree.right[node_id]};"]
        else:
            label = (f"cluster {tree.label[node_id]}"
                     f"\\n(n={tree.count[node_id]})")
        lines.append(f'  n{node_id} [label="{label}"];')
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model serialization

# magic, version, sha256 of the payload, payload length
_HEADER = struct.Struct("<4sI32sQ")


def save_model(model: ServedModel, path) -> None:
    """Write what serving reads of `model`, a fitted ModelState or a loaded
    ServedModel: the header, then one JSON payload. A payload that
    load_model would reject raises ValueError before the file opens."""
    standardizer = model.standardizer
    if standardizer is not None:
        standardizer = [[mean.tolist(), std.tolist()]
                        for mean, std in standardizer]
    payload = json.dumps({
        "config": asdict(model.config),
        "view_dims": list(model.view_dims),
        "standardizer": standardizer,
        "converged": model.converged,
        "cycles_run": model.cycles_run,
        "tree": tree_to_doc(model.tree, model.view_offsets),
    }, sort_keys=True, separators=(",", ":")).encode()
    _read_model(payload, f"cannot save model file {path}")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MODEL_MAGIC, MODEL_VERSION,
                             hashlib.sha256(payload).digest(), len(payload)))
        f.write(payload)


# the metadata fields load_model reads, with their checks
_META_FIELDS = {"config": _OBJECT, "view_dims": _COUNTS,
                "standardizer": _ARRAY_OR_NULL, "converged": _BOOLEAN,
                "cycles_run": _INT64, "tree": _OBJECT}


def _truncated(path, wanted: int, offset: int, got: int) -> ValueError:
    return ValueError(f"truncated model file {path}: wanted {wanted} bytes "
                      f"at offset {offset}, got {got}")


def _read_payload(path) -> bytes:
    """The payload of a model file, after its header, length and checksum
    are checked; no read is asked for more bytes than the file holds."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if head[:4] != MODEL_MAGIC:
            raise ValueError(f"{path} is not a model file")
        if len(head) < 8:
            raise _truncated(path, 4, 4, len(head) - 4)
        (version,) = struct.unpack_from("<I", head, 4)
        if version == 1:
            raise ValueError(f"model file {path} is version 1, which is no "
                             f"longer read: fit the model again")
        if version != MODEL_VERSION:
            raise ValueError(f"model file {path} has unsupported version "
                             f"{version}")
        if len(head) < _HEADER.size:
            raise _truncated(path, _HEADER.size - 8, 8, len(head) - 8)
        _, _, digest, length = _HEADER.unpack(head)
        left = os.fstat(f.fileno()).st_size - _HEADER.size
        if length > left:
            raise _truncated(path, length, _HEADER.size, left)
        if length < left:
            raise ValueError(f"damaged model file {path}: {left - length} "
                             f"bytes past the payload")
        payload = f.read(length)
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"damaged model file {path}: the payload does not "
                         f"match its checksum")
    return payload


def _standardizer(pairs: list, view_dims: list[int]) -> list[tuple]:
    """The per-view (mean, std) of metadata field 'standardizer': finite JSON
    floats as save_model writes them (an int or a bool saves as other
    bytes), each std above 0."""
    pairs = [np.array(pair, dtype=object) for pair in pairs]
    if [pair.shape for pair in pairs] != [(2, dim) for dim in view_dims]:
        raise ValueError("metadata field 'standardizer' does not hold a mean "
                         "and a std per view feature")
    for v, pair in enumerate(pairs):
        for (row, j), x in np.ndenumerate(pair):
            if type(x) is not float or not math.isfinite(x) or row and x <= 0:
                raise ValueError(f"metadata field 'standardizer' view {v} "
                                 f"{('mean', 'std')[row]} {j} is "
                                 f"{reprlib.repr(x)}, expected a finite "
                                 f"float{' > 0' * row}")
    return [tuple(pair.astype(np.float64)) for pair in pairs]


def _read_model(payload: bytes, where: str) -> ServedModel:
    """The served model in a model file's `payload`, which must hold it in
    the one form save_model writes; else a ValueError that starts with
    `where` and names the field at fault."""
    try:
        meta = json.loads(payload)
    except ValueError:                  # not UTF-8, or not JSON
        raise ValueError(f"{where}: metadata is not JSON") from None
    try:
        for name, check in _META_FIELDS.items():
            _field(meta, "metadata", name, check)
        try:
            cfg = PipelineConfig(**meta["config"])
            cfg.validate()
        except (TypeError, ValueError) as exc:  # a key it lacks, a bad value
            raise ValueError(f"metadata field 'config' is malformed: "
                             f"{exc}") from None
        if meta["cycles_run"] > cfg.outer_cycles:   # fit never runs more
            raise ValueError(f"metadata field 'cycles_run' is "
                             f"{meta['cycles_run']}, past config field "
                             f"'outer_cycles' {cfg.outer_cycles}")
        view_dims, standardizer = meta["view_dims"], meta["standardizer"]
        if (standardizer is not None) != cfg.standardize:
            raise ValueError(f"metadata field 'standardizer' is "
                             f"{reprlib.repr(standardizer)}, but config "
                             f"field 'standardize' is {cfg.standardize}")
        if standardizer is not None:
            standardizer = _standardizer(standardizer, view_dims)
        model = ServedModel(config=cfg, tree=doc_to_tree(meta["tree"]),
                            view_dims=view_dims, standardizer=standardizer,
                            converged=meta["converged"],
                            cycles_run=meta["cycles_run"])
        tree, offsets = model.tree, meta["tree"].get("view_offsets")
        if tree.feature_dim != sum(view_dims):
            raise ValueError(f"tree has {tree.feature_dim} features, the "
                             f"views {sum(view_dims)}")
        # fields the tree document repeats from the model must agree with
        # it: a larger k lets predict return labels past the config's, and
        # save_model writes view_offsets anew from the view widths
        if tree.k != cfg.k:
            raise ValueError(f"tree field 'k' is {tree.k}, the config's "
                             f"{cfg.k}")
        if (offsets != model.view_offsets
                or not all(type(offset) is int for offset in offsets)):
            raise ValueError(f"tree field 'view_offsets' is {offsets!r}, "
                             f"the views' {model.view_offsets}")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return model


def load_model(path) -> ServedModel:
    """The served model in a model file; a damaged file raises a
    ValueError that names it and the field at fault."""
    return _read_model(_read_payload(path), f"damaged model file {path}")
