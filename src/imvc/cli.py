"""Command-line surface: synth, fit, predict, explain, eval, export-tree."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import data, metrics, pipeline


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    config = pipeline.PipelineConfig
    p.add_argument("manifest", help="dataset manifest JSON")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--e1", type=int, default=config.e1,
                   help="pretraining epochs")
    p.add_argument("--e2", type=int, default=config.e2,
                   help="feature-phase epochs")
    p.add_argument("--max-depth", type=int, default=config.max_depth)
    p.add_argument("--min-num", type=int, default=config.min_num,
                   help="minimum instances needed to split a node")
    p.add_argument("--lambda", dest="lam", type=float, default=config.lam,
                   help="cross-entropy trade-off coefficient")
    p.add_argument("--lr", type=float, default=config.lr)
    p.add_argument("--seed", type=int, default=config.seed)
    p.add_argument("--cycles", dest="outer_cycles", metavar="CYCLES",
                   type=int, default=config.outer_cycles,
                   help="maximum joint optimization cycles")
    p.add_argument("--standardize", action="store_true",
                   help="z-score each view feature before training")
    p.add_argument("--out", default="model.bin", help="model output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imvc",
        description="Interpretable multi-view clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a model on a dataset")
    _add_fit_args(p)

    p = sub.add_parser("predict", help="assign clusters with a trained model")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", default="labels.csv")

    p = sub.add_parser("explain", help="print the decision path of an instance")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--instance", type=int, required=True)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("export-tree", help="write the decision tree")
    p.add_argument("model")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--n", type=int, default=200, help="instances per cluster")
    p.add_argument("--dims", type=int, default=8, help="features per view")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_fit(args) -> int:
    views, _, _ = data.load_dataset(args.manifest)
    config = pipeline.PipelineConfig(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(pipeline.PipelineConfig)})
    state = pipeline.fit(views, config)
    data.save_model(state, args.out)
    clusters = len(set(state.labels.hard.tolist()))
    print(f"model written to {args.out} "
          f"(cycles={state.cycles_run}, converged={state.converged}, "
          f"tree nodes={state.tree.n_nodes}, "
          f"clusters={clusters} of {state.config.k})")
    return 0


def _cmd_predict(args) -> int:
    state = data.load_model(args.model)
    views, _, _ = data.load_dataset(args.manifest)
    labels = state.predict(views)
    data.write_labels(args.out, labels)
    print(f"labels written to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    state = data.load_model(args.model)
    views, _, manifest = data.load_dataset(args.manifest)
    i = args.instance
    if not 0 <= i < manifest.n:
        raise data.DatasetError(f"instance {i} out of range [0, {manifest.n})")
    path, label = pipeline.explain(state, [v[i] for v in views])
    for step in path:
        side = "<=" if step.went_left else ">"
        print(f"V{step.view + 1}[{step.local_feature}] "
              f"{side} {step.threshold:.6g}")
    print(f"cluster {label}")
    return 0


def _cmd_eval(args) -> int:
    pred = data.load_labels(args.pred)
    truth = data.load_labels(args.truth)
    if pred.shape != truth.shape:
        raise data.DatasetError(
            f"pred has {pred.shape[0]} labels, truth has {truth.shape[0]}"
        )
    pur = metrics.purity(pred, truth)
    acc = metrics.clustering_accuracy(pred, truth)
    _, _, f1 = metrics.pairwise_f1(pred, truth)
    print(f"purity={pur:.3f} acc={acc:.3f} f1={f1:.3f}")
    return 0


def _cmd_export_tree(args) -> int:
    state = data.load_model(args.model)
    text = data.export_tree(state.tree, state.view_offsets, fmt=args.format)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"tree written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    views, truth = data.synth_multiview(
        n_per_cluster=args.n, k=args.k, n_views=args.views, dims=args.dims,
        noise=args.noise, seed=args.seed,
    )
    manifest_path = data.write_dataset(args.out, views, truth)
    print(f"dataset written to {manifest_path}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "explain": _cmd_explain,
    "eval": _cmd_eval,
    "export-tree": _cmd_export_tree,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
