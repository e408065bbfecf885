#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize medians and spreads.

    python3 perfbench/repeat.py --workloads fit-acceptance fit-large \
        --seeds 1-10 --trace 0 1 --traced-seeds 1-3 \
        --out perfbench/baseline/BENCH_<commit>.json

Each run is `run.py` in its own process, one after another. For every
workload and metric the summary holds the values, their median, the
quartiles from `statistics.quantiles(values, n=4)` and the spread: the
distance between the quartiles as a share of the median. End-to-end
spreads are compared with a third of the bound in BENCHMARK.json. Every
run measures `run_seconds` from BENCHMARK.json.

With `--trace 0 1` it also reports the tracing overhead (traced minus
untraced median fit and read-op time) and checks the layer split each
workload was chosen for. Every run of a workload, traced or not, must save
the same model bytes (criterion 9).

Exits 1 if an op failed, a workload saved more than one model, or a layer
split check failed; spreads above a third of their bound are only flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_out" / "results"

# workload -> (per-layer metrics, least share of the traced fit time they
# take together): the layer split each workload was chosen for.
LAYER_SPLIT = {
    "fit-acceptance": (["nncore.loss_and_grads_s", "nncore.adam_step_s"], 0.85),
    "fit-large": (["kmeans.s", "dtree.build_tree_s", "tao.optimize_tree_s"], 0.60),
}
# Layers that must stay idle in read ops (they serve without training).
TRAINING_LAYERS = {"nncore", "kmeans", "tao"}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, trace, seconds) -> dict:
    """Run once; the result record it writes to .bench_out/results/."""
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(path.read_text())
    if record["metrics"] != last["metrics"]:
        raise RuntimeError(f"{path} does not match the run's output")
    return record


def spread_stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Spread statistics over the records of one workload and trace mode."""
    summary = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "seeds": [r["environment"]["seeds"]["seed"] for r in runs],
        "fit_s_median": statistics.median(
            statistics.median(r["samples"]["fit_s"]) for r in runs),
        "read_op_s_median": statistics.median(
            statistics.median(op["s"] for op in r["ops"] if op["kind"] == "read")
            for r in runs),
        "model_sha256": sorted({r["model_sha256"] for r in runs}),
        "metrics": {},
    }
    if "read_op_calls" in runs[0]:
        summary["training_calls_in_read_ops"] = sum(
            n for r in runs for name, n in r["read_op_calls"].items()
            if name.split(".")[0] in TRAINING_LAYERS)
    for name, m in runs[0]["metrics"].items():
        stats = spread_stats([r["metrics"][name]["value"] for r in runs])
        stats["unit"] = m["unit"]
        if name in bounds:
            stats["bound"] = bounds[name]
            stats["steady"] = stats["spread"] < bounds[name] / 3
        summary["metrics"][name] = stats
    return summary


def layer_split(workload, traced) -> dict:
    m = {name: s["median"] for name, s in traced["metrics"].items()}
    names, least = LAYER_SPLIT[workload]
    share = sum(m[name] for name in names) / traced["fit_s_median"]
    idle = traced["training_calls_in_read_ops"]
    return {"metrics": names, "share_of_traced_fit_s": share, "least": least,
            "training_calls_in_read_ops": idle,
            "ok": share >= least and idle == 0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", nargs="+", type=int, default=[0])
    p.add_argument("--traced-seeds", default=None,
                   help="seeds of the traced runs (default: --seeds)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"][workload] = {}
        for trace in args.trace:
            seeds = args.traced_seeds if trace and args.traced_seeds else args.seeds
            runs = []
            for seed in parse_seeds(seeds):
                record = run_once(workload, seed, trace, seconds)
                runs.append(record)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{record['attempted']} ops, {record['failed']} failed",
                      file=sys.stderr)
            key = "traced" if trace else "untraced"
            entry[key] = summarize(runs, bounds)
            entry.setdefault("environment", runs[0]["environment"])
        if "traced" in entry and "untraced" in entry:
            t, u = entry["traced"], entry["untraced"]
            entry["tracing_overhead"] = {
                "fit_s": t["fit_s_median"] - u["fit_s_median"],
                "read_op_s": t["read_op_s_median"] - u["read_op_s_median"],
            }
        digests = {d for key in ("untraced", "traced") if key in entry
                   for d in entry[key]["model_sha256"]}
        entry["deterministic"] = len(digests) == 1
        if "traced" in entry:
            entry["layer_split"] = layer_split(workload, entry["traced"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload, entry in report["workloads"].items():
        for key in ("untraced", "traced"):
            if key not in entry:
                continue
            s = entry[key]
            print(f"{workload} {key}: {s['attempted']} ops, {s['failed']} failed, "
                  f"{len(s['model_sha256'])} distinct model digest(s)")
            for name, m in s["metrics"].items():
                flag = "" if m.get("steady", True) else "  NOT STEADY"
                print(f"  {name:28s} {m['median']:14.6g} {m['unit']:8s} "
                      f"spread {m['spread']:.4f}{flag}")
        for key in ("tracing_overhead", "layer_split", "deterministic"):
            if key in entry:
                print(f"  {key}: {json.dumps(entry[key])}")
    ok = all(entry[key]["failed"] == 0 for entry in report["workloads"].values()
             for key in ("untraced", "traced") if key in entry)
    ok &= all(entry["deterministic"] and entry.get("layer_split", {"ok": True})["ok"]
              for entry in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
