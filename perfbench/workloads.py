"""Workloads, timed ops and result records of the imvc benchmark.

Imported by run.py once BLAS threads are pinned and imvc is importable
from this checkout; see run.py for how to run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

import numpy as np
from imvc import data, metrics, pipeline

from tracer import (PER_LAYER, Tracer, install, layer_metrics,
                    median_over_time, reportable_percentile, self_time_table)

from run import ROOT, THREAD_VARS

OUT = ROOT / ".bench_out"

COLD_SETUPS = 2         # more processes that only set up; setup_s is the
                        # median of theirs and this process's set-up time
MIN_READ_OPS = 10       # read ops after the fit, even past --seconds
EXPLAIN_CALLS = 1000    # explain calls per read op; >= 1000 lets p99 be reported
BATCH_ROWS = 200_000    # rows per timed predict call

# name -> unit; every run prints all of them.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "acc": "ratio",
    "peak_rss_mb": "MB",
    "model_load_ms": "ms",
    "ingest_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "explain_per_s": "1/s",
}

VIEWS, DIM = 3, 8


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the warm-up data and the query rows")
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window for the timed ops")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data-seed", type=int, default=None,
                   help="training-data seed (default: the workload's)")
    p.add_argument("--fit-seed", type=int, default=None,
                   help="PipelineConfig seed (default: the workload's)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# inputs

def acceptance_data(data_seed, fit_seed):
    """The acceptance data set at paper defaults."""
    views, truth = data.synth_multiview(n_per_cluster=200, k=3, n_views=VIEWS,
                                        dims=DIM, noise=0.5, seed=data_seed)
    return views, truth, pipeline.PipelineConfig(k=3, seed=fit_seed)


def large_data(data_seed, fit_seed):
    """n = 4000 overlapping blobs: per-view means from N(0, 1), unit noise.

    synth_multiview spreads clusters at least 6 sigma apart, which keeps
    trees at 7-11 nodes; these overlap, so CART and TAO have work to do.
    """
    rng = np.random.default_rng(data_seed)
    n, k = 4000, 4
    truth = np.arange(n) % k
    means = [rng.standard_normal((k, DIM)) for _ in range(VIEWS)]
    views = [m[truth] + rng.standard_normal((n, DIM)) for m in means]
    config = pipeline.PipelineConfig(k=k, seed=fit_seed, e1=20, e2=20,
                                     outer_cycles=2)
    return views, truth, config


def warm_up(seed: int) -> None:
    """Throwaway small fit and predict, so first-call costs stay out of ops."""
    views, _ = data.synth_multiview(n_per_cluster=200, k=3, n_views=VIEWS,
                                    dims=DIM, noise=0.5, seed=[seed, 9])
    config = pipeline.PipelineConfig(k=3, seed=seed, e1=10, e2=10,
                                     outer_cycles=1)
    pipeline.fit(views, config).predict(views)


def clock():
    return time.perf_counter()


# ---------------------------------------------------------------------------
# the workload

class Workload:
    """A fit op on the training set, then read-path ops on the saved model.

    The fit op ingests the training CSVs (the input path of `imvc fit`),
    fits, and saves the model. Each read op loads that model, ingests the
    CSVs again, predicts BATCH_ROWS in-memory query rows and explains
    EXPLAIN_CALLS single rows; the query rows are training rows drawn by
    --seed.
    """

    def __init__(self, make_data, data_seed, fit_seed):
        self.make_data = make_data
        self.seeds = {"data_seed": data_seed, "fit_seed": fit_seed}

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.views, self.truth, self.config = self.make_data(**self.seeds)
        self.manifest = data.write_dataset(work / "train", self.views, self.truth)
        self.model_path = work / "model.imvc"
        warm_up(seed)

    def make_queries(self) -> None:
        """Draw the read ops' query rows; made after the fit op, so that
        they are not resident while the fit sets peak_rss_mb."""
        rng = np.random.default_rng([self.seed, 1])
        self.batch_rows = rng.integers(len(self.truth), size=BATCH_ROWS)
        self.batch = [v[self.batch_rows] for v in self.views]
        self.explain_rows = rng.integers(len(self.truth), size=EXPLAIN_CALLS)
        self.singles = [[v[i] for v in self.views] for i in self.explain_rows]

    def fit_op(self) -> tuple[bool, dict]:
        """Fit, check the model against itself, save it.

        Fails if the fitted model does not predict its own training labels,
        or if saving the loaded model gives other bytes than were saved.
        Determinism across runs (criterion 9) is checked by repeat.py from
        the model digest each run records. peak_rss_mb is read as the op
        ends, before any read op runs or its query rows exist.
        """
        views, _, _ = data.load_dataset(self.manifest)
        ok = all(np.array_equal(a, b) for a, b in zip(views, self.views))
        t = clock()
        state = pipeline.fit(views, self.config)
        fit_s = clock() - t
        self.labels = state.labels.hard
        ok &= bool(np.array_equal(state.predict(views), self.labels))
        data.save_model(state, self.model_path)
        blob = self.model_path.read_bytes()
        resaved = self.model_path.with_suffix(".resaved")
        data.save_model(data.load_model(self.model_path), resaved)
        ok &= resaved.read_bytes() == blob
        self.model_sha256 = hashlib.sha256(blob).hexdigest()
        self.tree = state.tree
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return ok, {"fit_s": [fit_s],
                    "acc": [metrics.clustering_accuracy(self.labels, self.truth)],
                    "peak_rss_mb": [peak_mb]}

    def read_op(self) -> tuple[bool, dict]:
        """Load, ingest, predict, explain, each timed on its own.

        Fails if the ingested rows differ from the generated ones, if the
        loaded model's predictions differ from the fitted model's, or if an
        explanation ends in another leaf than `predict` gives that row.
        """
        t = clock()
        model = data.load_model(self.model_path)
        load_s = clock() - t

        t = clock()
        views, _, _ = data.load_dataset(self.manifest)
        ingest_s = clock() - t
        ok = all(np.array_equal(a, b) for a, b in zip(views, self.views))

        t = clock()
        predicted = model.predict(self.batch)
        predict_s = clock() - t
        ok &= bool(np.array_equal(predicted, self.labels[self.batch_rows]))

        t = clock()
        leaves = [pipeline.explain(model, x)[1] for x in self.singles]
        explain_s = clock() - t
        ok &= bool(np.array_equal(leaves, self.labels[self.explain_rows]))
        return ok, {"load_s": [load_s], "ingest_s": [ingest_s],
                    "predict_s": [predict_s], "explain_s": [explain_s]}

    def end_to_end(self, samples: dict) -> dict:
        """Medians of the ops' samples; read-path steps take the median over
        time of their durations (tracer.median_over_time)."""
        return {
            "fit_s": statistics.median(samples["fit_s"]),
            "acc": statistics.median(samples["acc"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "model_load_ms": 1e3 * median_over_time(samples["load_s"]),
            "ingest_rows_per_s": len(self.truth) / median_over_time(samples["ingest_s"]),
            "predict_rows_per_s": BATCH_ROWS / median_over_time(samples["predict_s"]),
            "explain_per_s": EXPLAIN_CALLS / median_over_time(samples["explain_s"]),
        }


# name -> (data function, default data seed, default fit seed);
# BENCHMARK.json says why each workload was chosen.
WORKLOADS = {
    "fit-acceptance": (acceptance_data, 42, 1),
    "fit-large": (large_data, 0, 0),
}


# ---------------------------------------------------------------------------
# environment record

def git_commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None            # a plain checkout without .git
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seeds: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seeds": seeds,
    }


# ---------------------------------------------------------------------------
# the run

def timed_ops(workload: Workload, seconds: float, tracer: Tracer | None):
    """One fit op, then read ops back to back (closed loop, one caller).

    Read ops continue until the next would, at the median read-op time, end
    more than `seconds` after the fit op started, and at least MIN_READ_OPS
    run. Returns (samples by metric, one dict per op, tracebacks).
    """
    samples, ops, errors = {}, [], []
    start = clock()
    kind = "fit"
    while True:
        first_span = len(tracer.spans) if tracer else 0
        t = clock()
        try:
            ok, values = workload.fit_op() if kind == "fit" else workload.read_op()
        except Exception:        # a failed op is counted, not fatal
            ok, values = False, {}
            errors.append(traceback.format_exc())
        ops.append({"kind": kind, "s": clock() - t, "ok": ok,
                    "spans": [first_span, len(tracer.spans) if tracer else 0]})
        for key, v in values.items():
            samples.setdefault(key, []).extend(v)
        if kind == "fit":
            workload.make_queries()
        else:
            read_s = [op["s"] for op in ops if op["kind"] == "read"]
            if (len(read_s) >= MIN_READ_OPS and
                    clock() - start + statistics.median(read_s) > seconds):
                return samples, ops, errors
        kind = "read"


def run(args, t0: float) -> dict:
    make_data, default_data, default_fit = WORKLOADS[args.workload]
    data_seed = default_data if args.data_seed is None else args.data_seed
    fit_seed = default_fit if args.fit_seed is None else args.fit_seed
    seeds = {"seed": args.seed, "data_seed": data_seed, "fit_seed": fit_seed}

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = Workload(make_data, data_seed, fit_seed)
        workload.setup(work, args.seed)
        if args.setup_only:
            return {"setup_s": clock() - t0}
        if tracer is not None:
            install(tracer)
        try:
            setup_s = clock() - t0      # process start to the first timed op
            samples, ops, errors = timed_ops(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(seeds),
        "setup_s": setup_s,
        "ops": ops,
        "samples": samples,
        "errors": errors,
        "attempted": len(ops),
        "failed": failed,
        "model_sha256": getattr(workload, "model_sha256", None),
    }
    if tracer is None:
        values = workload.end_to_end(samples)
        record["cold_setup_s"] = cold_setups(args)
        values["setup_s"] = statistics.median([setup_s, *record["cold_setup_s"]])
        units = END_TO_END
    else:
        values = layer_metrics(tracer.spans, ops, workload.tree)
        explains = sum(1 for s in tracer.spans if s.name == "pipeline.explain")
        if (reportable_percentile(explains) or 0) < 99:
            raise RuntimeError(f"{explains} explain calls are too few for p99")
        units = PER_LAYER
        record["self_time"] = self_time_table(tracer.spans)
        record["read_op_calls"] = Counter(
            tracer.spans[i].name for op in ops if op["kind"] == "read"
            for i in range(*op["spans"]))
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value measured for {missing}")
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_jsonl(results / f"{stem}.spans.jsonl")
    return record


def cold_setups(args) -> list[float]:
    """Set-up times of COLD_SETUPS fresh processes, one after another, that
    set up as this run did and exit."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    for flag, value in (("--data-seed", args.data_seed),
                        ("--fit-seed", args.fit_seed)):
        if value is not None:
            cmd += [flag, str(value)]
    times = []
    for _ in range(COLD_SETUPS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def main(t0: float, argv=None) -> int:
    """Run one workload; `t0` is the process's clock reading at start."""
    args = parse_args(argv)
    record = run(args, t0)
    if args.setup_only:
        print(json.dumps(record))
        return 0
    for name, m in record["metrics"].items():
        print(f"{args.workload:15s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:15s} ops attempted {record['attempted']}, "
          f"failed {record['failed']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0
