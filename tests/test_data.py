import dataclasses
import functools
import hashlib
import json
import operator
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imvc import data as dataio
from imvc import pipeline
from imvc.dtree import build_tree, feature_attribution
from imvc.pipeline import PipelineConfig
from trees import internal_ids, make_tree


@pytest.fixture()
def written_dataset(tmp_path):
    views, truth = dataio.synth_multiview(n_per_cluster=5, k=2, n_views=2,
                                          dims=3, noise=0.2, seed=0)
    manifest = dataio.write_dataset(tmp_path / "ds", views, truth)
    return manifest, views, truth


@pytest.mark.filterwarnings("error")
class TestLoadDataset:
    def test_round_trip_preserves_values(self, written_dataset):
        manifest, views, truth = written_dataset
        loaded_views, loaded_truth, spec = dataio.load_dataset(manifest)
        assert len(loaded_views) == 2
        for a, b in zip(loaded_views, views):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded_truth, truth)
        assert spec.n == 10

    def test_missing_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2,
            "views": [{"path": "absent.csv", "dim": 1}],
        }))
        with pytest.raises(dataio.DatasetError, match="absent.csv"):
            dataio.load_dataset(manifest)

    def test_row_count_mismatch_names_view(self, tmp_path):
        (tmp_path / "v0.csv").write_text("1,2\n3,4\n")
        (tmp_path / "v1.csv").write_text("1\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2,
            "views": [{"path": "v0.csv", "dim": 2},
                      {"path": "v1.csv", "dim": 1}],
        }))
        with pytest.raises(dataio.DatasetError, match="view 1"):
            dataio.load_dataset(manifest)

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "v0.csv").write_text("1,2\n3\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2, "views": [{"path": "v0.csv", "dim": 2}],
        }))
        with pytest.raises(dataio.DatasetError, match="ragged"):
            dataio.load_dataset(manifest)

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "v0.csv").write_text("1,2\n3,oops\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2, "views": [{"path": "v0.csv", "dim": 2}],
        }))
        with pytest.raises(dataio.DatasetError, match="non-numeric"):
            dataio.load_dataset(manifest)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_view_file_and_line(self, tmp_path, bad):
        (tmp_path / "v0.csv").write_text("1,2\n3,4\n5,6\n")
        # a blank line before the bad row: the line number is the file's
        (tmp_path / "v1.csv").write_text(f"1\n\n3\n{bad}\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 3,
            "views": [{"path": "v0.csv", "dim": 2},
                      {"path": "v1.csv", "dim": 1}],
        }))
        with pytest.raises(dataio.DatasetError,
                           match=r"view 1 \(v1.csv\): non-finite value at "
                                 r"line 4 of .*v1.csv"):
            dataio.load_dataset(manifest)

    def test_non_integer_label_names_file_and_line(self, tmp_path):
        (tmp_path / "v0.csv").write_text("1\n2\n3\n4\n")
        (tmp_path / "y.csv").write_text("0\n\n1.5\n2.9\n-1\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 4, "views": [{"path": "v0.csv", "dim": 1}],
            "labels_path": "y.csv",
        }))
        pattern = r"labels: 1.5 at line 3 of .*y.csv is not a 64-bit integer"
        with pytest.raises(dataio.DatasetError, match=pattern):
            dataio.load_dataset(manifest)
        with pytest.raises(dataio.DatasetError, match=pattern):
            dataio.load_labels(tmp_path / "y.csv")
        # integer-valued, but past the int64 range astype would wrap into
        (tmp_path / "y.csv").write_text("0\n1e20\n")
        with pytest.raises(dataio.DatasetError,
                           match=r"labels: 1e\+20 at line 2 of"):
            dataio.load_labels(tmp_path / "y.csv")

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [m], r"m.json is not a JSON object"),
        (lambda m: dict(m, name=5), r"m.json field 'name' is 5, expected a "
                                    r"string"),
        (lambda m: {k: v for k, v in m.items() if k != "n"},
         r"m.json is missing field 'n'"),
        (lambda m: dict(m, n="2"), r"m.json field 'n' is '2', expected a "
                                   r"positive integer"),
        (lambda m: dict(m, n=True), r"m.json field 'n' is True"),
        (lambda m: dict(m, views=[]), r"m.json field 'views' is \[\], "
                                      r"expected a non-empty array"),
        (lambda m: dict(m, views={"path": "v0.csv", "dim": 2}),
         r"m.json field 'views' is \{.*expected a non-empty array"),
        (lambda m: dict(m, views=[m["views"][0], "v1.csv"]),
         r"m.json view 1 is not a JSON object"),
        (lambda m: dict(m, views=[{"path": 5, "dim": 2}]),
         r"m.json view 0 field 'path' is 5, expected a string"),
        (lambda m: dict(m, views=[{"path": "v0.csv"}]),
         r"m.json view 0 is missing field 'dim'"),
        (lambda m: dict(m, views=[{"path": "v0.csv", "dim": 2.7}]),
         r"m.json view 0 field 'dim' is 2.7, expected a positive integer"),
        (lambda m: dict(m, views=[{"path": "v0.csv", "dim": 0}]),
         r"m.json view 0 field 'dim' is 0, expected a positive integer"),
        (lambda m: dict(m, labels_path=3),
         r"m.json field 'labels_path' is 3, expected a string"),
    ], ids=["array", "name-number", "no-n", "n-string", "n-boolean",
            "views-empty", "views-object", "view-string", "path-number",
            "no-dim", "dim-float", "dim-zero", "labels-path-number"])
    def test_manifest_field_types_checked(self, tmp_path, edit, message):
        (tmp_path / "v0.csv").write_text("1,2\n3,4\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(edit({
            "name": "x", "n": 2, "views": [{"path": "v0.csv", "dim": 2}],
        })))
        with pytest.raises(dataio.DatasetError, match=message):
            dataio.load_dataset(manifest)

    def test_manifest_not_utf8_names_the_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(dataio.DatasetError,
                           match=r"m.json is not valid JSON: 'utf-8' codec"):
            dataio.load_dataset(manifest)

    def test_null_labels_path_means_no_labels(self, tmp_path):
        (tmp_path / "v0.csv").write_text("1,2\n3,4\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2, "views": [{"path": "v0.csv", "dim": 2}],
            "labels_path": None,
        }))
        _, truth, _ = dataio.load_dataset(manifest)
        assert truth is None

    def test_integer_valued_labels_load(self, tmp_path):
        (tmp_path / "y.csv").write_text("0\n2.0\n-1\n")
        np.testing.assert_array_equal(dataio.load_labels(tmp_path / "y.csv"),
                                      [0, 2, -1])


def reference_load_csv_matrix(path: Path, what: str) -> np.ndarray:
    """The per-cell float() parser the reader replaced, kept as its oracle:
    strip each line, skip it when blank, split on commas, parse with
    float(). Python's float() also takes underscores and non-ASCII digits,
    which the reader rejects, so inputs for it hold neither. A byte the
    locale cannot decode is kept in its line, where float() rejects it."""
    rows, linenos = [], []
    width = None
    with path.open(errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise dataio.DatasetError(
                    f"{what}: ragged row at line {lineno} of {path} "
                    f"({len(cells)} cells, expected {width})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise dataio.DatasetError(
                    f"{what}: non-numeric cell at line {lineno} of {path}"
                )
            linenos.append(lineno)
    if not rows:
        raise dataio.DatasetError(f"{what}: {path} is empty")
    mat = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(mat).all():
        row = int(np.argmin(np.isfinite(mat).all(axis=1)))
        raise dataio.DatasetError(
            f"{what}: non-finite value at line {linenos[row]} of {path}"
        )
    return mat


def load_view(tmp_path, text: str, n: int = 2, dim: int = 2) -> np.ndarray:
    """The one view of a manifest declaring (n, dim), whose CSV is `text`
    written byte for byte."""
    (tmp_path / "v0.csv").write_bytes(text.encode())
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "x", "n": n, "views": [{"path": "v0.csv", "dim": dim}],
    }))
    views, _, _ = dataio.load_dataset(manifest)
    return views[0]


@st.composite
def csv_views(draw):
    """(n, dim, text) of a CSV holding n rows of dim finite floats, written
    with %.17g or repr, with blank and whitespace-only lines between rows,
    LF or CRLF line ends and spaces around the cells."""
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(["%.17g".__mod__, repr]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    blank = st.sampled_from(["", " ", " \t "])
    end = st.sampled_from(["\n", "\r\n"])
    text = ""
    for _ in range(n):
        for line in draw(st.lists(blank, max_size=2)):
            text += line + draw(end)
        row = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=dim, max_size=dim))
        text += ",".join(draw(pad) + fmt(x) + draw(pad) for x in row)
        text += draw(end)
    for line in draw(st.lists(blank, max_size=2)):
        text += draw(end) + line
    return n, dim, text


@pytest.mark.filterwarnings("error")
class TestCsvIngest:
    """The CSV grammar and error lines of `load_dataset`'s view reader."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_views())
    def test_arrays_match_the_reference_parser(self, tmp_path, case):
        n, dim, text = case
        view = load_view(tmp_path, text, n, dim)
        expected = reference_load_csv_matrix(tmp_path / "v0.csv", "view 0")
        assert view.dtype == expected.dtype
        assert view.shape == expected.shape
        assert view.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text(alphabet="0123456789,.e- \nainfx\xff", max_size=30))
    def test_short_texts_parse_or_name_file_and_line(self, tmp_path, text):
        path = tmp_path / "v0.csv"
        path.write_bytes(text.encode("latin-1"))    # \xff is not UTF-8
        try:
            expected = reference_load_csv_matrix(path, "view 0")
        except dataio.DatasetError as exc:
            expected = str(exc)
        try:
            got = dataio._load_csv_matrix(path, "view 0")
        except dataio.DatasetError as exc:
            assert str(exc) == expected
            assert re.search(rf"(at line \d+ of|:) {re.escape(str(path))}",
                             str(exc))
        else:
            assert isinstance(expected, np.ndarray), expected
            assert got.tobytes() == expected.tobytes()
            assert got.shape == expected.shape

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        view = load_view(tmp_path, "1,2\n  \t \n3,4\n")
        np.testing.assert_array_equal(view, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"],
                             ids=["empty", "blank-only"])
    def test_file_without_data_is_empty(self, tmp_path, text):
        with pytest.raises(dataio.DatasetError,
                           match=r"view 0 \(v0.csv\): .*v0.csv is empty$"):
            load_view(tmp_path, text)

    @pytest.mark.parametrize("text, message", [
        ("1,2\n# 3,4\n", r"non-numeric cell at line 2 of"),
        ("1,2\n\n\n3\n", r"ragged row at line 4 of .*v0.csv "
                          r"\(1 cells, expected 2\)"),
        ("1,2\n   \n3,x\n", r"non-numeric cell at line 3 of"),
        ("1,2\n3,4,\n", r"ragged row at line 2 of .*v0.csv "
                        r"\(3 cells, expected 2\)"),
        ("1,2,\n3,4,\n", r"non-numeric cell at line 1 of"),
    ], ids=["comment-line", "ragged-after-blanks", "bad-after-whitespace",
            "trailing-comma", "trailing-comma-first"])
    def test_error_names_the_line(self, tmp_path, text, message):
        with pytest.raises(dataio.DatasetError,
                           match=r"view 0 \(v0.csv\): " + message):
            load_view(tmp_path, text)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661"],
                             ids=["underscore", "arabic-indic-digit"])
    def test_cells_float_accepts_but_numpy_rejects(self, tmp_path, cell):
        # float() takes both; the reader's grammar is numpy's, ASCII only
        assert float(cell) in (1000.0, 1.0)
        with pytest.raises(dataio.DatasetError,
                           match=r"non-numeric cell at line 2 of"):
            load_view(tmp_path, f"1,2\n3,{cell}\n")


class TestWriteDataset:
    @pytest.mark.parametrize("views, truth, message", [
        ([np.ones((5, 2)), np.ones((4, 2))], None,
         "view 1 has 4 rows, expected 5"),
        ([np.array([[0.0], [np.nan]])], None,
         "view 0 has a non-finite value in row 1"),
        ([np.ones((3, 2)), np.ones((3, 0))], None,
         "view 1 has no features, expected at least 1"),
        ([np.ones((0, 2))], None, "the views have no rows, expected at least 1"),
        ([np.ones((3, 2))], [0, 1],
         "truth is [0.0, 1.0], expected 3 64-bit integers"),
        ([np.ones(3)], None,
         "view 0 has shape (3,), expected (rows, features)"),
        ([], None, "expected at least one view, got none"),
        ([np.ones((3, 2))], [0.0, 1.7, 2.2],
         "truth is [0.0, 1.7, 2.2], expected 3 64-bit integers"),
    ], ids=["rows-differ", "view-nan", "view-zero-width", "no-rows",
            "truth-short", "view-1d", "no-views", "truth-fractional"])
    def test_dataset_the_loader_rejects_is_not_written(self, tmp_path, views,
                                                       truth, message):
        """write_dataset writes only what load_dataset reads back: input
        breaking one of its rules raises before anything is written."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataio.write_dataset(tmp_path / "ds", views, truth)
        assert not (tmp_path / "ds").exists()


def standardize(view):
    return pipeline.standardize([view], [pipeline.fit_standardizer(view, 0)])[0]


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_constant_column_maps_to_zero(self):
        out = standardize(np.array([[5.0, 1.0], [5.0, 2.0]]))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    def test_idempotent(self):
        X = np.random.default_rng(0).standard_normal((20, 3)) * 4 + 2
        once = standardize(X)
        twice = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)


class TestSynth:
    def test_noise_zero_collapses_clusters(self):
        views, truth = dataio.synth_multiview(4, 2, 2, 3, noise=0.0, seed=1)
        for view in views:
            for c in (0, 1):
                members = view[truth == c]
                assert np.all(members == members[0])

    @pytest.mark.parametrize("n_views, dims, view", [(1, 2.7, 0),
                                                     (2, [3, 2.7], 1)],
                             ids=["scalar", "list"])
    def test_fractional_width_rejected(self, n_views, dims, view):
        with pytest.raises(ValueError, match=rf"^view {view} has width 2.7, "
                                             r"expected an integer$"):
            dataio.synth_multiview(5, 2, n_views, dims, 0.5, 0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
    def test_noise_not_a_finite_number_at_least_0_rejected(self, noise):
        with pytest.raises(ValueError, match=rf"^noise is {noise}, expected "
                                             rf"a finite number >= 0$"):
            dataio.synth_multiview(5, 2, 2, 3, noise, 0)

    def test_cluster_sizes(self):
        _, truth = dataio.synth_multiview(7, 3, 1, 2, noise=0.5, seed=2)
        np.testing.assert_array_equal(np.bincount(truth), [7, 7, 7])

    def test_raw_concatenation_is_separable(self):
        import imvc
        from imvc.kmeans import kmeans
        views, truth = dataio.synth_multiview(20, 3, 2, 4, noise=0.1, seed=3)
        result = kmeans(np.hstack(views), 3, seed=0)
        assert imvc.clustering_accuracy(result.labels, truth) == 1.0


class TestTreeExport:
    def make_tree(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, size=40)
        return build_tree(X, y, max_depth=4, min_num=2, k=3), X

    def test_single_leaf_dot(self):
        tree = build_tree(np.zeros((3, 2)), np.array([1, 1, 1]), max_depth=2,
                          min_num=1, k=2)
        dot = dataio.export_tree(tree, [0], fmt="dot")
        assert dot.count("[label=") == 1
        assert "cluster 1" in dot

    def test_dot_structure(self):
        tree, _ = self.make_tree()
        dot = dataio.export_tree(tree, [0, 3], fmt="dot")
        assert dot.startswith("digraph tree {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 2 * len(internal_ids(tree))

    def test_json_round_trip_preserves_predictions(self):
        tree, X = self.make_tree()
        doc = json.loads(dataio.export_tree(tree, [0, 3], fmt="json"))
        restored = dataio.doc_to_tree(doc)
        rng = np.random.default_rng(6)
        probes = rng.standard_normal((1000, 6))
        np.testing.assert_array_equal(restored.predict_batch(probes),
                                      tree.predict_batch(probes))

    def test_view_attribution_rendering(self):
        assert feature_attribution(80, [0, 76]) == (1, 4)
        assert feature_attribution(75, [0, 76]) == (0, 75)
        assert feature_attribution(76, [0, 76]) == (1, 0)


def model_file(payload: bytes) -> bytes:
    """A model file of the current version holding `payload`: magic,
    version, the payload's sha256 and length, then the payload."""
    return (b"IMVC" + struct.pack("<I", dataio.MODEL_VERSION)
            + hashlib.sha256(payload).digest()
            + struct.pack("<Q", len(payload)) + payload)


def run_script(script: str, *args, timeout: float = 300) -> dict:
    """The JSON that `script` prints last, run in a fresh interpreter at
    one BLAS thread; each script caps its own address space at 1 GB."""
    src = str(Path(dataio.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# loads every truncation of a model file and `flips` seeded single-bit
# flips of it under a capped address space; prints what did not raise a
# ValueError naming the damaged file
FUZZ = """
import json, resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from imvc import data
src, bad, seed, flips = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
data.load_model(src)
blob = open(src, "rb").read()
cases = [("cut", size) for size in range(len(blob))]
cases += [("flip", int(bit)) for bit in
          np.random.default_rng(seed).integers(8 * len(blob), size=flips)]
failures = []
for kind, at in cases:
    damaged = bytearray(blob[:at] if kind == "cut" else blob)
    if kind == "flip":
        damaged[at // 8] ^= 1 << (at % 8)
    with open(bad, "wb") as f:
        f.write(damaged)
    try:
        data.load_model(bad)
        failures.append(f"{kind} {at}: loaded")
    except ValueError as exc:
        if bad not in str(exc):
            failures.append(f"{kind} {at}: {exc}")
    except Exception as exc:
        failures.append(f"{kind} {at}: {type(exc).__name__}: {exc}")
print(json.dumps({"cases": len(cases), "failures": failures}))
"""


# sets each field of each node record of a model's tree to each of nine
# JSON values and signs the payload again; each file must load, route
# every row to a label in [0, k) and save again to its own bytes, or raise
# a ValueError naming it. Prints the counts and what did neither.
TREE_EDITS = """
import hashlib, json, resource, struct, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from imvc import data
work = sys.argv[1]
src, bad, again = (work + name for name in ("/model.bin", "/bad.imvc",
                                            "/again.imvc"))
rows = np.load(work + "/rows.npy")
views = [rows[:, :1], rows[:, 1:]]
meta = json.loads(open(src, "rb").read()[48:])
values = [None, "x", [], {}, True, -1, 2**40, 1.5, float("nan")]
counts = {"cases": 0, "loaded": 0, "rejected": 0}
failures = []
for index in range(len(meta["tree"]["nodes"])):
    for field in sorted(meta["tree"]["nodes"][index]):
        for value in values:
            edited = json.loads(json.dumps(meta))
            edited["tree"]["nodes"][index][field] = value
            payload = json.dumps(edited, sort_keys=True,
                                 separators=(",", ":")).encode()
            blob = (b"IMVC" + struct.pack("<I", data.MODEL_VERSION)
                    + hashlib.sha256(payload).digest()
                    + struct.pack("<Q", len(payload)) + payload)
            with open(bad, "wb") as f:
                f.write(blob)
            case = f"node #{index} {field}={value!r}"
            counts["cases"] += 1
            try:
                model = data.load_model(bad)
            except ValueError as exc:
                counts["rejected"] += 1
                if bad not in str(exc):
                    failures.append(f"{case}: {exc}")
                continue
            except Exception as exc:
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            counts["loaded"] += 1
            try:
                labels = model.predict(views)
            except Exception as exc:
                failures.append(f"{case}: predict: {type(exc).__name__}: {exc}")
                continue
            if not ((labels >= 0) & (labels < model.tree.k)).all():
                failures.append(f"{case}: predicted {sorted(set(labels))}")
            data.save_model(model, again)
            with open(again, "rb") as f:
                if f.read() != blob:
                    failures.append(f"{case}: saves as other bytes")
print(json.dumps(dict(counts, failures=failures)))
"""


def with_entry(meta, view, row, j, value):
    """meta with entry j of view `view`'s mean (row 0) or std (row 1) in
    its standardizer set to `value`."""
    meta["standardizer"][view][row][j] = value
    return meta


class TestModelSerialization:
    @pytest.fixture()
    def state(self):
        views, _ = dataio.synth_multiview(10, 2, 2, 3, noise=0.3, seed=4)
        config = PipelineConfig(k=2, e1=3, e2=3, min_num=3, seed=4,
                                outer_cycles=1, standardize=True)
        return pipeline.fit(views, config), views

    def test_round_trip_predict_agreement(self, tmp_path, state):
        model, views = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        restored = dataio.load_model(path)
        np.testing.assert_array_equal(restored.predict(views),
                                      model.predict(views))
        np.testing.assert_array_equal(restored.predict(views),
                                      model.labels.hard)
        assert restored.view_dims == model.view_dims
        assert (dataio.tree_to_doc(restored.tree, restored.view_offsets)
                == dataio.tree_to_doc(model.tree, model.view_offsets))
        for got, want in zip(restored.standardizer, model.standardizer):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_save_is_deterministic(self, tmp_path, state):
        model, _ = state
        dataio.save_model(model, tmp_path / "a.bin")
        dataio.save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a model file"):
            dataio.load_model(path)

    @pytest.mark.parametrize("version, message", [
        (1, "model file .*old.imvc is version 1, which is no longer read: "
            "fit the model again"),
        (2, "model file .*old.imvc is version 2, which is no longer read: "
            "fit the model again"),
        (4, "model file .*old.imvc has unsupported version 4"),
    ], ids=["v1", "v2", "v4"])
    def test_version_other_than_3_rejected(self, tmp_path, version, message):
        path = tmp_path / "old.imvc"
        path.write_bytes(b"IMVC" + struct.pack("<I", version))
        with pytest.raises(ValueError, match=message):
            dataio.load_model(path)

    def test_truncated_file_rejected(self, tmp_path, state):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.bin"
        # inside the version, the checksum, and three inside the payload
        for size in (6, 10, 300, len(blob) // 2, len(blob) - 1):
            cut_path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated model file"):
                dataio.load_model(cut_path)

    @pytest.mark.parametrize("length", [2**63, 2**40],
                             ids=["metadata-2^63", "metadata-2^40"])
    def test_length_prefix_past_the_end_rejected(self, tmp_path, state,
                                                 length):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 40, length)     # the payload's length
        bad = tmp_path / "bad.imvc"
        bad.write_bytes(raw)
        with pytest.raises(ValueError,
                           match=f"truncated model file .*bad.imvc: wanted "
                                 f"{length} bytes at offset 48"):
            dataio.load_model(bad)

    def test_bytes_past_the_payload_rejected(self, tmp_path, state):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        bad = tmp_path / "bad.imvc"
        bad.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ValueError, match="damaged model file .*bad.imvc: "
                                             "1 bytes past the payload"):
            dataio.load_model(bad)

    def test_flipped_threshold_rejected(self, tmp_path, state):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        raw = path.read_bytes()
        at = raw.index(b'"split_value":') + len(b'"split_value":') + 1
        bad = tmp_path / "bad.imvc"
        bad.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        with pytest.raises(ValueError, match="damaged model file .*bad.imvc: "
                                             "the payload does not match its "
                                             "checksum"):
            dataio.load_model(bad)

    def test_every_cut_and_bit_flip_rejected(self, tmp_path, state):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        size = path.stat().st_size
        result = run_script(FUZZ, path, tmp_path / "bad.imvc", 12, 3000)
        assert result["cases"] == size + 3000
        assert result["failures"] == []

    @staticmethod
    def edit_meta(src, dst, edit):
        """Copy a model file with its payload replaced by `edit(meta)` and
        signed again."""
        meta = edit(json.loads(src.read_bytes()[48:]))
        raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        dst.write_bytes(model_file(raw))

    @classmethod
    def edit_tree(cls, src, dst, edit):
        """Copy a model file with `edit` applied to its tree document."""
        def edit_doc(meta):
            edit(meta["tree"])
            return meta
        cls.edit_meta(src, dst, edit_doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: {}, "is missing field 'view_dims'"),
        (lambda meta: [1, 2], "is not a JSON object"),
        (lambda meta: {k: v for k, v in meta.items() if k != "tree"},
         "is missing field 'tree'"),
        (lambda meta: dict(meta, config={}),
         "has an unknown field 'config'"),
        (lambda meta: dict(meta, view_dims=["3", 3]),
         "field 'view_dims' is \\['3', 3\\], expected a non-empty array of "
         "positive integers"),
        (lambda meta: dict(meta, view_dims=[]),
         "field 'view_dims' is \\[\\], expected a non-empty array of "
         "positive integers"),
        (lambda meta: dict(meta, standardizer=meta["standardizer"][:1]),
         "field 'standardizer' does not hold a mean and a std per view "
         "feature"),
        (lambda meta: dict(meta, standardizer=[["a", "b"]] * 2),
         "field 'standardizer' does not hold a mean and a std per view "
         "feature"),
        (lambda meta: dict(meta, standardizer=5),
         "field 'standardizer' is 5, expected an array or null"),
        (lambda meta: with_entry(meta, 0, 1, 2, 0.0),
         "field 'standardizer' view 0 std 2 is 0.0, expected a finite float "
         "> 0"),
        (lambda meta: with_entry(meta, 1, 1, 0, -1.0),
         "field 'standardizer' view 1 std 0 is -1.0, expected a finite float "
         "> 0"),
        (lambda meta: with_entry(meta, 0, 0, 1, float("nan")),
         "field 'standardizer' view 0 mean 1 is nan, expected a finite "
         "float$"),
        (lambda meta: with_entry(meta, 0, 1, 0, float("inf")),
         "field 'standardizer' view 0 std 0 is inf, expected a finite float "
         "> 0"),
        (lambda meta: with_entry(meta, 1, 0, 2, True),
         "field 'standardizer' view 1 mean 2 is True, expected a finite "
         "float$"),
        (lambda meta: with_entry(meta, 1, 0, 2, 1),
         "field 'standardizer' view 1 mean 2 is 1, expected a finite float$"),
    ], ids=["empty-object", "array", "no-tree", "extra-field",
            "view-dims-strings", "view-dims-empty", "standardizer-short",
            "standardizer-strings", "standardizer-number",
            "std-zero", "std-negative", "mean-nan", "std-infinity",
            "mean-boolean", "mean-integer"])
    def test_damaged_metadata_rejected_at_load(self, tmp_path, state, edit,
                                               message):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        bad = tmp_path / "bad.imvc"
        self.edit_meta(path, bad, edit)
        with pytest.raises(ValueError,
                           match=f"damaged model file .*bad.imvc: metadata "
                                 f"{message}"):
            dataio.load_model(bad)

    @pytest.mark.parametrize("change, message", [
        (dict(standardizer=[(np.zeros(1), np.ones(1)),
                            (np.zeros(1), np.zeros(1))]),
         "metadata field 'standardizer' view 1 std 0 is 0.0, expected a "
         "finite float > 0"),
        (dict(view_dims=[1, 2]), "tree has 2 features, the views 3"),
    ], ids=["std-zero", "views-narrower-than-the-tree"])
    def test_model_the_loader_rejects_is_not_saved(self, tmp_path, change,
                                                   message):
        """save_model writes only files that load_model reads: a model
        breaking one of its rules raises before the file opens, so no file
        is made and a good model at the path keeps its bytes."""
        tree = make_tree({0: (0, 0.5, 1, 2), 1: 0, 2: 2}, k=3, feature_dim=2)
        good = pipeline.ServedModel(tree=tree, view_dims=[1, 1])
        bad = dataclasses.replace(good, **change)
        path = tmp_path / "model.imvc"
        match = (f"^cannot save model file {re.escape(str(path))}: "
                 f"{re.escape(message)}$")
        with pytest.raises(ValueError, match=match):
            dataio.save_model(bad, path)
        assert not path.exists()
        dataio.save_model(good, path)
        blob = path.read_bytes()
        with pytest.raises(ValueError, match=match):
            dataio.save_model(bad, path)
        assert path.read_bytes() == blob

    def test_tree_past_the_id_bound_is_not_saved(self, tmp_path, monkeypatch):
        tree = make_tree({0: (0, 0.5, 1, 4), 1: 0, 4: 1}, k=2, feature_dim=1)
        model = pipeline.ServedModel(tree=tree, view_dims=[1])
        monkeypatch.setattr(dataio, "_NODE_ID_END", 4)
        path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match="cannot save model file "
                                             ".*model.bin: tree node #2 field "
                                             "'id' is not an integer in "
                                             "\\[0, 4\\)"):
            dataio.save_model(model, path)
        assert not path.exists()
        monkeypatch.setattr(dataio, "_NODE_ID_END", 5)
        dataio.save_model(model, path)
        assert dataio.load_model(path).tree.ids() == [0, 1, 4]

    @pytest.mark.parametrize("field, value, message", [
        ("split_feature", 99, "splits on feature 99, outside \\[0, 6\\)"),
        ("split_feature", -1, "splits on feature -1, outside \\[0, 6\\)"),
        ("left", 12345, "has a missing child 12345"),
        ("right", 12345, "has a missing child 12345"),
    ], ids=["feature-too-high", "feature-negative", "left-missing",
            "right-missing"])
    def test_damaged_tree_rejected_at_load(self, tmp_path, state, field,
                                           value, message):
        model, views = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        internal = max(internal_ids(model.tree))

        def edit(doc):
            for rec in doc["nodes"]:
                if rec["id"] == internal:
                    rec[field] = value

        self.edit_tree(path, tmp_path / "same.bin", lambda doc: None)
        assert (tmp_path / "same.bin").read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(
            dataio.load_model(tmp_path / "same.bin").predict(views),
            model.predict(views))
        self.edit_tree(path, tmp_path / "damaged.bin", edit)
        with pytest.raises(ValueError, match=f"damaged model file "
                                             f".*damaged.bin: tree node "
                                             f"{internal} {message}"):
            dataio.load_model(tmp_path / "damaged.bin")

    @pytest.mark.parametrize("field", ["id", "kind", "depth", "split_feature",
                                       "split_value", "label", "left", "right",
                                       "count"])
    def test_tree_node_lacking_a_field_rejected(self, tmp_path, state, field):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        node = model.tree.root
        where = f"#{node}" if field == "id" else node    # the record's index

        def edit(doc):
            del doc["nodes"][node][field]

        self.edit_tree(path, tmp_path / "bad.imvc", edit)
        with pytest.raises(ValueError, match=f"damaged model file .*bad.imvc: "
                                             f"tree node {where} lacks field "
                                             f"'{field}'"):
            dataio.load_model(tmp_path / "bad.imvc")

    @pytest.mark.parametrize("field", ["k", "feature_dim", "root", "nodes"])
    def test_tree_document_lacking_a_field_rejected(self, tmp_path, state,
                                                    field):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        self.edit_tree(path, tmp_path / "bad.imvc", lambda doc: doc.pop(field))
        with pytest.raises(ValueError, match=f"damaged model file .*bad.imvc: "
                                             f"tree is missing field "
                                             f"'{field}'"):
            dataio.load_model(tmp_path / "bad.imvc")

    # the fixture's tree is a stump: record 0 is the root, internal node 0
    # with children 1 and 2, and records 1 and 2 are its leaves
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["nodes"].__setitem__(1, [1]),
         "tree node #1 is not an object"),
        (lambda doc: doc["nodes"].append(dict(doc["nodes"][2])),
         "tree node #3 field 'id' is 2, expected more than the id before, 2"),
        (lambda doc: doc["nodes"].reverse(),
         "tree node #1 field 'id' is 1, expected more than the id before, 2"),
        (lambda doc: doc["nodes"][1].update(weight=1.0),
         "tree node 1 has an unknown field 'weight'"),
        (lambda doc: doc.update(n_leaves=2),
         "tree has an unknown field 'n_leaves'"),
        (lambda doc: doc.update(schema_version=True),
         "unsupported tree schema: True"),
        (lambda doc: doc["nodes"][1].update(id=True),
         "tree node #1 field 'id' is not an integer in \\[0, 1048576\\)"),
        (lambda doc: doc["nodes"].append(dict(doc["nodes"][2], id=2**40)),
         "tree node #3 field 'id' is not an integer in \\[0, 1048576\\)"),
        (lambda doc: doc["nodes"][0].update(depth=False),
         "tree node 0 field 'depth' is False, but the node is 0 below the "
         "root"),
        (lambda doc: doc["nodes"][2].update(depth=2),
         "tree node 2 field 'depth' is 2, but the node is 1 below the root"),
        (lambda doc: doc["nodes"][1].update(count=10.0),
         "tree node 1 field 'count' is not an integer in \\[0, 2\\*\\*63\\)"),
        (lambda doc: doc["nodes"][0].update(left=True),
         "tree node 0 has a missing child True in field 'left'"),
        (lambda doc: doc["nodes"][0].update(right="2"),
         "tree node 0 has a missing child '2' in field 'right'"),
        (lambda doc: doc["nodes"][0].update(split_feature=0.0),
         "tree node 0 field 'split_feature' is not an integer"),
        (lambda doc: doc["nodes"][2].update(label=False),
         "tree node 2 field 'label' is not an integer in \\[0, 2\\)"),
        (lambda doc: doc["nodes"][2].update(label=2),
         "tree node 2 field 'label' is not an integer in \\[0, 2\\)"),
        (lambda doc: doc["nodes"][0].update(split_value="0.5"),
         "tree node 0 field 'split_value' is not a finite float"),
        (lambda doc: doc["nodes"][0].update(split_value=float("nan")),
         "tree node 0 field 'split_value' is not a finite float"),
        (lambda doc: doc["nodes"][0].update(split_value=10**400),
         "tree node 0 field 'split_value' is not a finite float"),
        (lambda doc: doc["nodes"][0].update(kind="Internal"),
         "tree node 0 field 'kind' is not \"internal\" or \"leaf\""),
        (lambda doc: doc.update(k="2"),
         "tree field 'k' is '2', expected an integer in "
         "\\[0, 2\\*\\*63\\)"),
        (lambda doc: doc.update(feature_dim=6.0),
         "tree field 'feature_dim' is 6.0, expected an integer in "
         "\\[0, 2\\*\\*63\\)"),
        (lambda doc: doc.update(root=False),
         "tree field 'root' is False, expected an integer in "
         "\\[0, 2\\*\\*63\\)"),
        (lambda doc: doc.update(nodes={}),
         "tree field 'nodes' is \\{\\}, expected an array"),
        (lambda doc: doc["nodes"][0].update(left=0),
         "tree node 0 is reached twice from the root"),
        (lambda doc: doc["nodes"][0].update(right=1),
         "tree node 1 is reached twice from the root"),
        (lambda doc: doc["nodes"].append(dict(doc["nodes"][2], id=7)),
         "tree node 7 is not reached from the root"),
        (lambda doc: doc.update(view_offsets=[0, 1]),
         "tree field 'view_offsets' is \\[0, 1\\], the views' \\[0, 3\\]"),
        (lambda doc: doc.update(view_offsets=[0.0, 3.0]),
         "tree field 'view_offsets' is \\[0.0, 3.0\\], the views' "
         "\\[0, 3\\]"),
    ], ids=["record-array", "duplicate-id", "ids-descending",
            "node-extra-field", "tree-extra-field", "schema-version-boolean",
            "id-boolean", "id-2^40",
            "depth-boolean", "depth-wrong", "count-float", "left-boolean",
            "right-string", "split-feature-float", "label-boolean",
            "label-out-of-range", "split-value-string", "split-value-nan",
            "split-value-huge-integer", "kind-capitalized", "k-string",
            "feature-dim-float", "root-boolean", "nodes-object",
            "cycle-to-root", "shared-child", "unreached-node",
            "view-offsets-wrong", "view-offsets-floats"])
    def test_damaged_tree_field_rejected_at_load(self, tmp_path, state, edit,
                                                 message):
        model, _ = state
        assert dataio.tree_to_doc(model.tree, [0, 3])["nodes"] == [
            {"id": 0, "kind": "internal", "depth": 0, "split_feature": 0,
             "split_value": model.tree.threshold[0], "label": None,
             "left": 1, "right": 2, "count": 20},
            {"id": 1, "kind": "leaf", "depth": 1, "split_feature": None,
             "split_value": None, "label": 1, "left": None, "right": None,
             "count": 10},
            {"id": 2, "kind": "leaf", "depth": 1, "split_feature": None,
             "split_value": None, "label": 0, "left": None, "right": None,
             "count": 10}]
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        self.edit_tree(path, tmp_path / "bad.imvc", edit)
        with pytest.raises(ValueError, match=f"damaged model file .*bad.imvc: "
                                             f"{message}"):
            dataio.load_model(tmp_path / "bad.imvc")

    def test_every_tree_field_edit_loads_or_is_rejected(self, tmp_path):
        """Each field of each node of a small tree set to each of nine JSON
        values and signed again: the file loads, routes every row to a
        label in [0, k) and saves again to the same bytes, or raises a
        ValueError naming it. A hang or a huge allocation fails the test
        through `run_script`'s limits."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 4))
        tree = build_tree(X, rng.integers(0, 3, size=60), max_depth=3,
                          min_num=2, k=3)
        assert tree.n_nodes >= 7
        model = pipeline.ServedModel(tree=tree, view_dims=[1, 3])
        dataio.save_model(model, tmp_path / "model.bin")
        np.save(tmp_path / "rows.npy",
                np.vstack([X, 10 * rng.standard_normal((40, 4))]))
        result = run_script(TREE_EDITS, tmp_path)
        assert result["cases"] == 9 * 9 * tree.n_nodes
        assert result["loaded"] > 0 and result["rejected"] > 0
        assert result["failures"] == []

    def test_every_metadata_edit_loads_or_is_rejected(self, tmp_path):
        """Each metadata field, view width and standardizer entry of a
        standardized two-view model set to each of nine JSON values and
        signed again: the file loads, routes every row to a label in
        [0, k) and saves again to the same bytes, or raises a ValueError
        naming it. A RuntimeWarning is an error."""
        rng = np.random.default_rng(3)
        views = [rng.standard_normal((60, 1)), rng.standard_normal((60, 3))]
        tree = build_tree(np.hstack(views), rng.integers(0, 3, size=60),
                          max_depth=3, min_num=2, k=3)
        model = pipeline.ServedModel(
            tree=tree, view_dims=[1, 3],
            standardizer=[(view.mean(axis=0), view.std(axis=0))
                          for view in views])
        dataio.save_model(model, tmp_path / "model.bin")
        meta = json.loads((tmp_path / "model.bin").read_bytes()[48:])
        fields = [(name,) for name in meta]
        fields += [("view_dims", v) for v in range(2)]
        fields += [("standardizer", v, row, j) for v, dim in enumerate([1, 3])
                   for row in (0, 1) for j in range(dim)]
        values = [None, "x", [], {}, True, -1, 2**40, 1.5, float("nan")]
        bad, again = tmp_path / "bad.imvc", tmp_path / "again.imvc"
        counts = {"loaded": 0, "rejected": 0}
        failures = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for *parents, last in fields:
                for value in values:
                    edited = json.loads(json.dumps(meta))
                    functools.reduce(operator.getitem, parents,
                                     edited)[last] = value
                    blob = model_file(json.dumps(
                        edited, sort_keys=True, separators=(",", ":")
                    ).encode())
                    bad.write_bytes(blob)
                    case = f"{[*parents, last]}={value!r}"
                    try:
                        served = dataio.load_model(bad)
                    except ValueError as exc:
                        counts["rejected"] += 1
                        if str(bad) not in str(exc):
                            failures.append(f"{case}: {exc}")
                        continue
                    counts["loaded"] += 1
                    labels = served.predict(views)
                    if not ((labels >= 0) & (labels < 3)).all():
                        failures.append(f"{case}: predicted "
                                        f"{sorted(set(labels))}")
                    dataio.save_model(served, again)
                    if again.read_bytes() != blob:
                        failures.append(f"{case}: saves as other bytes")
        # 3 metadata fields, 2 widths, 2 * (1 + 3) entries
        assert len(fields) == 13
        assert counts["loaded"] > 0 and counts["rejected"] > 0
        assert failures == []

    def test_tree_wider_than_the_views_rejected_at_load(self, tmp_path, state):
        model, _ = state
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        self.edit_tree(path, tmp_path / "wide.bin",
                       lambda doc: doc.update(feature_dim=7))
        with pytest.raises(ValueError, match="tree has 7 features, the views 6"):
            dataio.load_model(tmp_path / "wide.bin")
