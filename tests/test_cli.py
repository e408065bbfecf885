import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from imvc import data as dataio
from imvc import pipeline
from imvc.cli import build_parser, main
from imvc.pipeline import PipelineConfig

from test_data import model_file


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert main(["synth", "--k", "2", "--views", "2", "--n", "15",
                 "--dims", "3", "--noise", "0.3", "--seed", "1",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    rc = main(["fit", str(dataset_dir / "manifest.json"), "--k", "2",
               "--e1", "5", "--e2", "5", "--min-num", "3", "--cycles", "1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_manifest_and_views(self, dataset_dir):
        views, truth, manifest = dataio.load_dataset(dataset_dir / "manifest.json")
        assert manifest.n == 30
        assert len(views) == 2
        np.testing.assert_array_equal(np.bincount(truth), [15, 15])

    def test_zero_width_view_fails_and_returns(self, tmp_path):
        # a zero-width view once redrew its cluster means forever
        src = os.path.dirname(os.path.dirname(dataio.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run(
            [sys.executable, "-m", "imvc.cli", "synth", "--dims", "0",
             "--out", str(tmp_path / "ds")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == ("error: view 0 has 0 features, expected at "
                               "least 1\n")
        assert not (tmp_path / "ds").exists()


    def test_nan_noise_fails_before_any_file(self, tmp_path, capsys):
        rc = main(["synth", "--noise", "nan", "--out", str(tmp_path / "ds")])
        assert rc == 1
        assert capsys.readouterr().err == ("error: noise is nan, expected a "
                                           "finite number >= 0\n")
        assert not (tmp_path / "ds").exists()


class TestEval:
    def test_identical_files_print_ones(self, dataset_dir, capsys):
        labels = dataset_dir / "labels.csv"
        assert main(["eval", "--pred", str(labels), "--truth", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "purity=1.000 acc=1.000 f1=1.000" in out

    def test_length_mismatch_fails(self, dataset_dir, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n")
        rc = main(["eval", "--pred", str(short),
                   "--truth", str(dataset_dir / "labels.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFitPredict:
    def test_predict_reproduces_training_labels(self, dataset_dir,
                                                model_path, tmp_path):
        out = tmp_path / "labels.csv"
        rc = main(["predict", str(model_path),
                   str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert rc == 0
        predicted = dataio.load_labels(out)
        # the model file holds no labels: fit again as model_path's fit did
        views, _, _ = dataio.load_dataset(dataset_dir / "manifest.json")
        state = pipeline.fit(views, PipelineConfig(k=2, e1=5, e2=5, min_num=3,
                                                   outer_cycles=1, seed=3))
        np.testing.assert_array_equal(predicted, state.labels.hard)

    def test_missing_model_fails_cleanly(self, dataset_dir, capsys):
        rc = main(["predict", "/nonexistent/model.bin",
                   str(dataset_dir / "manifest.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_string_view_path_fails_cleanly(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "x", "n": 2, "views": [{"path": 0, "dim": 1}]}))
        rc = main(["fit", str(manifest), "--k", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {manifest} view 0 field 'path' is 0, expected "
            f"a string\n")

    def test_fit_reports_the_clusters_used(self, tmp_path, capsys):
        # the method may leave clusters empty: a constant view gives one
        manifest = dataio.write_dataset(tmp_path / "ds", [np.ones((60, 4))])
        out = tmp_path / "model.bin"
        rc = main(["fit", str(manifest), "--k", "3", "--e1", "2", "--e2", "2",
                   "--cycles", "1", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.endswith(", clusters=1 of 3)\n")

    def test_non_finite_gradient_names_view_and_epoch(self, tmp_path, capsys):
        view = 1e200 * np.random.default_rng(0).standard_normal((60, 4))
        manifest = dataio.write_dataset(tmp_path / "ds", [view])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["fit", str(manifest), "--k", "3", "--e1", "3",
                       "--e2", "3", "--out", str(tmp_path / "model.bin")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: view 0: non-finite gradient in pretraining epoch 1\n")

    def test_fit_flags_default_to_the_config(self):
        args = build_parser().parse_args(["fit", "m.json", "--k", "3"])
        for field in dataclasses.fields(PipelineConfig):
            want = 3 if field.name == "k" else field.default
            got = getattr(args, field.name)
            assert (got, type(got)) == (want, type(want)), field.name


class TestExplain:
    def test_prints_path_and_cluster(self, dataset_dir, model_path, capsys):
        rc = main(["explain", str(model_path),
                   str(dataset_dir / "manifest.json"), "--instance", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("cluster ")

    def test_out_of_range_instance(self, dataset_dir, model_path, capsys):
        rc = main(["explain", str(model_path),
                   str(dataset_dir / "manifest.json"), "--instance", "999"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err


class TestExportTree:
    def test_dot_to_stdout(self, model_path, capsys):
        rc = main(["export-tree", str(model_path), "--format", "dot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph tree {")

    @pytest.mark.parametrize("meta, message", [
        ({}, "is missing field 'view_dims'"),
        ([1, 2], "is not a JSON object"),
    ], ids=["empty-object", "array"])
    def test_damaged_metadata_fails_cleanly(self, tmp_path, capsys, meta,
                                            message):
        bad = tmp_path / "bad.imvc"
        bad.write_bytes(model_file(json.dumps(meta).encode()))
        rc = main(["export-tree", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: damaged model file {bad}: metadata ")
        assert message in err

    def test_json_to_file(self, model_path, tmp_path):
        out = tmp_path / "tree.json"
        rc = main(["export-tree", str(model_path), "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        restored = dataio.doc_to_tree(doc)
        assert restored.n_nodes == len(doc["nodes"])


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
