"""Command-line entry point wiring the full pipeline.

Subcommands: stats, cluster, agglomerate, cluster-metrics, train, predict,
eval, cooc, impute, erase, rerank, verify. Reports go to stdout as
JSON; datasets use the sparse text format. Exit codes: 0 ok, 1 usage,
2 data error, 3 invariant violation (including a failed verify check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, bounds, kernels, reprs
from .agglomerate import MODES, SUM, agglomerate_dataset, agglomerate_matrix
from .cooc import build_cooc, erase_matrix, impute_matrix, load_cooc, save_cooc
from .cluster_quality import quality_report
from .dataio import Dataset, load_xc, save_xc, stats
from .errors import InvariantError, ParseError
from .linear import OvaConfig, load_model, probability_scores, save_model, train_ova
from .reranking import (_check_gamma, build_prototypes, check_rerank_settings,
                        rerank_predictions)
from .splits import MAX_ITERS
from .tree import (
    SPLIT_KINDS,
    SplitCounts,
    ensemble_trees,
    leaves,
    load_partition,
    save_partition,
)
from .xcmetrics import (
    coverage_at_k,
    load_predictions,
    ndcg_at_k,
    precision_at_k,
    propensities,
    psndcg_at_k,
    psp_at_k,
    save_predictions,
    top_k,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _add_dataset_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("data", help="dataset in sparse text format")
    p.add_argument("--one-based", action="store_true",
                   help="treat on-disk indices as one-based")


def _load(args) -> Dataset:
    return load_xc(args.data, one_based=args.one_based)


def _build_reprs(ds: Dataset, args) -> reprs.ReprSet:
    return reprs.build(
        ds,
        mode=args.mode,
        doc_fraction=args.doc_fraction,
        label_fraction=args.label_fraction,
        do_normalize=not args.no_normalize,
    )


def _check_output(path: str) -> None:
    """A missing output directory is a data error found before any input is
    read, not after the work whose result has nowhere to go."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"output directory {folder} does not exist")


def _ensemble_path(path: str, t: int, m: int) -> str:
    """Tree t's file: path itself for one tree, else path with .r<t> before
    the file name's extension."""
    if m == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.r{t}{ext}"


def _cmd_stats(args) -> int:
    s = stats(_load(args))
    _emit({"n": s.n, "d": s.d, "L": s.n_labels,
           "avg_features": s.avg_nnz_features, "avg_labels": s.avg_labels})
    return EXIT_OK


def _cmd_cluster(args) -> int:
    if args.ensemble < 1:
        raise ValueError("ensemble size must be at least 1")
    ds = _load(args)
    t0 = time.perf_counter()
    rs = _build_reprs(ds, args)
    trees = ensemble_trees(rs, args.ensemble, base_seed=args.seed, d0=args.leaf_size,
                           split_kind=args.split, max_iters=args.max_iters)
    parts = [leaves(tree) for tree in trees]
    elapsed = time.perf_counter() - t0
    files = []
    for t, part in enumerate(parts):
        path = _ensemble_path(args.output, t, args.ensemble)
        save_partition(part, path)
        files.append(path)
    _emit({
        "d": ds.d,
        "K": parts[0].n_clusters,
        "ensemble": args.ensemble,
        "files": files,
        "backend": kernels.backend_name(),
        "clustering_seconds": elapsed,
        # summed over the ensemble's trees
        "splits": asdict(sum((tree.split_counts() for tree in trees), SplitCounts())),
    })
    return EXIT_OK


def _cmd_agglomerate(args) -> int:
    ds = _load(args)
    part = load_partition(args.partition)
    out = agglomerate_dataset(ds, part, args.mode)
    save_xc(out, args.output)
    return EXIT_OK


def _cmd_cluster_metrics(args) -> int:
    ds = _load(args)
    part = load_partition(args.partition)
    report = quality_report(ds, part, mode=args.mode)
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_train(args) -> int:
    ds = _load(args)
    config = OvaConfig(epochs=args.epochs, lr=args.lr, lr_decay=args.lr_decay,
                       l2=args.l2, seed=args.seed, allow_large=args.allow_large)
    t0 = time.perf_counter()
    model = train_ova(ds, config)
    elapsed = time.perf_counter() - t0
    save_model(model, args.output)
    _emit({"labels": model.n_labels, "dim": model.dim,
           "backend": kernels.backend_name(), "train_seconds": elapsed})
    return EXIT_OK


def _cmd_predict(args) -> int:
    if args.partition and len(args.partition) != len(args.model):
        raise ValueError("give one --partition per --model, or none")
    ds = _load(args)
    models = [load_model(p) for p in args.model]
    partitions = [load_partition(p) for p in args.partition or []]
    n_labels = models[0].n_labels
    if any(model.n_labels != n_labels for model in models):
        raise ValueError("every --model must rank the same number of labels")
    t0 = time.perf_counter()
    feats = [agglomerate_matrix(ds.features, part, SUM) for part in partitions]
    feats = feats or [ds.features] * len(models)
    for model, f in zip(models, feats):
        if f.cols != model.dim:
            raise ValueError(f"matrix cols {f.cols} != model dim {model.dim}")

    def consensus(lo: int, hi: int) -> np.ndarray:
        # mean score over the models before ranking
        total = None
        for model, f in zip(models, feats):
            scores = probability_scores(model, f.slice_rows(lo, hi))
            total = scores if total is None else total + scores
        return total / len(models)

    k = min(args.k, n_labels)
    preds = top_k(consensus, ds.n, n_labels, k)
    elapsed = time.perf_counter() - t0
    save_predictions(preds, args.output)
    _emit({"points": ds.n, "k": k, "models": len(models),
           "mean_point_ms": 1000.0 * elapsed / max(ds.n, 1)})
    return EXIT_OK


def _cutoffs(text: str) -> list[int]:
    """The --k list of eval: comma-separated integers, each at least 1."""
    try:
        ks = [int(t) for t in text.split(",")]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise ValueError(f"--k must list integers of at least 1, got {text!r}")
    return ks


def _cmd_eval(args) -> int:
    ks = _cutoffs(args.k)
    if args.propensity and not args.train:
        raise ValueError("--propensity requires --train")
    preds = load_predictions(args.predictions)
    ds = load_xc(args.data, one_based=args.one_based)
    report: dict = {"points": ds.n}
    for k in ks:
        report[f"P@{k}"] = precision_at_k(preds, ds.labels, k)
        report[f"nDCG@{k}"] = ndcg_at_k(preds, ds.labels, k)
    if args.propensity:
        train_ds = load_xc(args.train, one_based=args.one_based)
        prop = propensities(train_ds.labels, A=args.A, B=args.B)
        for k in ks:
            report[f"PSP@{k}"] = psp_at_k(preds, ds.labels, prop, k)
            report[f"PSnDCG@{k}"] = psndcg_at_k(preds, ds.labels, prop, k)
    if args.coverage:
        for k in ks:
            report[f"coverage@{k}"] = coverage_at_k(preds, ds.labels, k)
    _emit(report)
    return EXIT_OK


def _cmd_cooc(args) -> int:
    ds = _load(args)
    part = load_partition(args.partition)
    c = build_cooc(ds, part, row_normalize=args.row_normalize)
    save_cooc(c, args.output)
    _emit({"d": c.d, "K": part.n_clusters, "stored_entries": c.stored_entries()})
    return EXIT_OK


def _cmd_impute(args) -> int:
    ds = _load(args)
    c = load_cooc(args.cooc)
    feats = impute_matrix(c, ds.features, lam=args.blend)
    save_xc(Dataset(feats, ds.labels), args.output)
    return EXIT_OK


def _cmd_erase(args) -> int:
    ds = _load(args)
    rng = np.random.default_rng(args.seed)
    feats = erase_matrix(ds.features, args.fraction, rng)
    save_xc(Dataset(feats, ds.labels), args.output)
    return EXIT_OK


def _cmd_rerank(args) -> int:
    check_rerank_settings(args.alpha, args.shortlist)
    _check_gamma(args.gamma)
    preds = load_predictions(args.predictions)
    test_ds = load_xc(args.test, one_based=args.one_based)
    train_ds = load_xc(args.train, one_based=args.one_based)
    part = load_partition(args.partition)
    c = build_cooc(train_ds, part, row_normalize=args.row_normalize)
    ps = build_prototypes(c, train_ds, normalize=not args.no_normalize,
                          gamma=args.gamma)
    out = rerank_predictions(preds, ps, test_ds.features, alpha=args.alpha,
                             shortlist=args.shortlist)
    save_predictions(out, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    runner = {
        "lemma1": bounds.lemma1_trials,
        "thm1": bounds.thm1_trials,
        "thm2": bounds.thm2_trials,
    }[args.theorem]
    report = runner(args.trials, seed=args.seed)
    _emit(report)
    return EXIT_OK if report["all_hold"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="featagg",
                     description="Balanced feature agglomeration toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    _add_dataset_arg(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("cluster", help="build a feature partition")
    _add_dataset_arg(p)
    p.add_argument("-o", "--output", required=True, help="partition file")
    p.add_argument("--mode", choices=("x", "xy"), default="x")
    p.add_argument("--split", choices=SPLIT_KINDS, default="kmeans")
    p.add_argument("--leaf-size", type=int, default=8, metavar="D0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--doc-fraction", type=float, default=0.25)
    p.add_argument("--label-fraction", type=float, default=0.05)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip unit-normalizing representative vectors")
    p.add_argument("--ensemble", type=int, default=1, metavar="M")
    p.add_argument("--max-iters", type=int, default=MAX_ITERS)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("agglomerate", help="apply a partition to a dataset")
    _add_dataset_arg(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=MODES, default=SUM)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_agglomerate)

    p = sub.add_parser("cluster-metrics", help="clustering quality report")
    _add_dataset_arg(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=MODES, default=SUM)
    p.set_defaults(fn=_cmd_cluster_metrics)

    p = sub.add_parser("train", help="train the one-vs-rest baseline")
    _add_dataset_arg(p)
    p.add_argument("-o", "--output", required=True, help="model file")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--lr-decay", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="rank labels for every point")
    _add_dataset_arg(p)
    p.add_argument("--model", action="append", required=True,
                   help="model file (repeat for ensemble consensus)")
    p.add_argument("--partition", action="append",
                   help="partition per model for on-the-fly agglomeration")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("-o", "--output", required=True, help="predictions file")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("predictions")
    p.add_argument("data", help="ground-truth dataset")
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--k", default="1,3,5")
    p.add_argument("--propensity", action="store_true")
    p.add_argument("--train", help="training dataset for propensities")
    p.add_argument("--A", type=float, default=0.55)
    p.add_argument("--B", type=float, default=1.5)
    p.add_argument("--coverage", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("cooc", help="build the pseudo co-occurrence blocks")
    _add_dataset_arg(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--row-normalize", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_cooc)

    p = sub.add_parser("impute", help="co-occurrence feature imputation")
    _add_dataset_arg(p)
    p.add_argument("--cooc", required=True)
    p.add_argument("--blend", type=float, default=0.0,
                   help="weight on the original vector (0 = pure imputation)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_impute)

    p = sub.add_parser("erase", help="randomly erase stored features")
    _add_dataset_arg(p)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_erase)

    p = sub.add_parser("rerank", help="combine base scores with prototype affinity")
    p.add_argument("predictions", help="base predictions file")
    p.add_argument("--test", required=True, help="test dataset")
    p.add_argument("--train", required=True, help="training dataset")
    p.add_argument("--partition", required=True)
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--shortlist", type=int, default=100)
    p.add_argument("--row-normalize", action="store_true")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip unit-normalizing prototypes and queries")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_rerank)

    p = sub.add_parser("verify", help="randomized bound verification")
    p.add_argument("--theorem", choices=("lemma1", "thm1", "thm2"), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None) is not None:  # every -o command
            _check_output(args.output)
        return args.fn(args)
    except ParseError as exc:
        print(f"featagg: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantError as exc:
        print(f"featagg: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"featagg: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
