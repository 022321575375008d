"""The three benchmark workloads: seeded inputs, one pipeline pass, checks.

Each pass starts from the text files written at set-up and runs the README
pipeline in-process through featagg's public functions. Every stage call goes
through ``Stages.run`` under the name of the per-layer metric it feeds. A pass
returns its outputs; ``check_pass`` then verifies them outside the timed pass.

Why these workloads:

* ``cluster``: the feature-side half of the README (cluster, agglomerate,
  cluster-metrics) on scattered features. The tree and its splits do most of
  the work, and it runs both split kinds through the same tree layer. There
  is no linear or co-occurrence work, so it is the bypass workload for
  changes to those layers.
* ``rerank``: many labels, so the one-vs-rest baseline (``linear``) dominates,
  followed by the reranking path: predict, eval, prototypes and rerank.
* ``impute``: many rows and few labels, so the per-row paths dominate: parse,
  co-occurrence build, erase and impute, and writing the imputed file.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from featagg import synth
from featagg.agglomerate import agglomerate_dataset
from featagg.cluster_quality import quality_report
from featagg.cooc import build_cooc, erase_matrix, impute_matrix, load_cooc, save_cooc
from featagg.dataio import Dataset, load_xc, save_xc
from featagg.linear import OvaConfig, load_model, predict, save_model, train_ova
from featagg import reprs, tree
from featagg.reranking import build_prototypes, rerank_predictions
from featagg.xcmetrics import (
    coverage_at_k,
    load_predictions,
    precision_at_k,
    propensities,
    psp_at_k,
    save_predictions,
)

D0 = 8

# Shapes per workload. "full" is what the benchmark measures; "tiny" is for
# the smoke test. The generator is named by "gen"; the other keys are its
# arguments, except n_train (rows kept as train; the rest are test).
SHAPES = {
    "cluster": {
        "full": dict(gen="random_dataset", n=3000, d=2048, nnz_per_row=16,
                     n_labels=64, labels_per_row=2),
        "tiny": dict(gen="random_dataset", n=300, d=128, nnz_per_row=8,
                     n_labels=8, labels_per_row=2),
    },
    "rerank": {
        "full": dict(gen="powerlaw_dataset", n=1000, d=2048, n_labels=250,
                     bundle_size=3, zipf_exponent=1.3, noise_features=4,
                     n_train=350),
        "tiny": dict(gen="powerlaw_dataset", n=300, d=128, n_labels=120,
                     bundle_size=3, zipf_exponent=1.3, noise_features=4,
                     n_train=150),
    },
    "impute": {
        "full": dict(gen="duplicated_group_dataset", n=2500, groups=512,
                     copies=8, active_groups=6, n_labels=16, n_train=1875),
        "tiny": dict(gen="duplicated_group_dataset", n=300, groups=32,
                     copies=4, active_groups=3, n_labels=8, n_train=200),
    },
}

# sha256 of every partition's cluster_of (int64 bytes) at seed 0 and the
# full shapes. Partitions must stay bit-identical for a given seed.
PINNED_SEED = 0
PINNED = {
    "cluster": {
        "kmeans": "071f3a9e0ee90992555f7085e6c5d492b4360fdbf9d590a3b6b45a3e65a97563",
        "ndcg": "ba881ea3a9c76fd7f1896d71cea9150ab48d86a627071d64cc0e6684df667c1a",
    },
    "rerank": {
        "kmeans": "1d346567c574e6b7e9185a5833b0895b488be41de4349b728966da859e177c14",
    },
    "impute": {
        "kmeans": "39cf0941593161df6bb8ba5b199f2f3d28fa6385447ba40d6c11ddb618b268b0",
    },
}


def generate(shape: dict, seed: int) -> list[Dataset]:
    """Seeded inputs: [data] for cluster, [train, test] for the others."""
    args = dict(shape)
    gen = getattr(synth, args.pop("gen"))
    n_train = args.pop("n_train", None)
    ds = gen(np.random.default_rng(seed), **args)
    if isinstance(ds, tuple):  # duplicated_group_dataset also returns groups
        ds = ds[0]
    if n_train is None:
        return [ds]
    return list(synth.split_points(ds, n_train))


def write_inputs(datasets: list[Dataset], workdir: str) -> list[str]:
    paths = []
    for name, ds in zip(("train.txt", "test.txt"), datasets):
        path = os.path.join(workdir, name)
        save_xc(ds, path)
        paths.append(path)
    return paths


def digest(part: tree.FeaturePartition) -> str:
    return hashlib.sha256(np.ascontiguousarray(part.cluster_of, dtype=np.int64)
                          .tobytes()).hexdigest()


class Pass:
    """Context shared by the stages of one pass: stage runner, files, counters."""

    def __init__(self, stages, paths, workdir, seed):
        self.paths = paths
        self.workdir = workdir
        self.seed = seed
        self.run = stages.run
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def file(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def parse(self, path: str) -> Dataset:
        ds = self.run("dataio.parse_s", load_xc, path)
        self.add("dataio.bytes_in", os.path.getsize(path))
        return ds

    def partition(self, train: Dataset, split_kind: str, rs=None):
        if rs is None:
            rs = self.run("reprs.build_s", reprs.build, train, mode="x",
                          doc_fraction=0.25)
            self.add("reprs.nnz", rs.matrix.nnz)
        grown = self.run(f"tree.{split_kind}_s", tree.make_tree, rs, d0=D0,
                         split_kind=split_kind, seed=self.seed)
        self.add("tree.nodes", count_nodes(grown.root))
        part = self.run(f"tree.{split_kind}_s", tree.leaves, grown)
        return part, rs

    def agglomerate(self, ds: Dataset, part) -> Dataset:
        out = self.run("agglomerate.s", agglomerate_dataset, ds, part)
        self.add("agglomerate.nnz_in", ds.features.nnz)
        self.add("agglomerate.nnz_out", out.features.nnz)
        return out

    def roundtrip(self, metric: str, save, load, obj, name: str, size_counter=None):
        path = self.file(name)
        self.run(metric, save, obj, path)
        if size_counter:
            self.add(size_counter, os.path.getsize(path))
        return self.run(metric, load, path)


def save_preds(preds, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        save_predictions(preds, fh)


def load_preds(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_predictions(fh)


def count_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


def run_cluster(p: Pass) -> dict:
    data = p.parse(p.paths[0])
    out = {"partitions": {}, "agglomerated": [], "quality": {}, "inputs": [data]}
    rs = None
    for kind in ("kmeans", "ndcg"):
        part, rs = p.partition(data, kind, rs)
        agg = p.agglomerate(data, part)
        report = p.run("cluster_quality.s", quality_report, data, part)
        loaded = p.roundtrip("tree.io_s", tree.save_partition, tree.load_partition,
                             part, f"part_{kind}.json")
        out["partitions"][kind] = part
        out["partitions"][f"{kind}_loaded"] = loaded
        out["agglomerated"].append((data, agg))
        out["quality"][f"lmi_{kind}"] = report.lmi
    return out


def evaluate(p: Pass, preds, truth, prop) -> dict[str, float]:
    def metrics():
        return {"p_at_1": precision_at_k(preds, truth, 1),
                "psp_at_5": psp_at_k(preds, truth, prop, 5),
                "coverage_at_5": coverage_at_k(preds, truth, 5)}
    return p.run("xcmetrics.eval_s", metrics)


def run_rerank(p: Pass) -> dict:
    train = p.parse(p.paths[0])
    test = p.parse(p.paths[1])
    part, _ = p.partition(train, "kmeans")
    train8 = p.agglomerate(train, part)
    test8 = p.agglomerate(test, part)
    model = p.run("linear.train_s", train_ova, train8,
                  OvaConfig(epochs=1, l2=1e-3, seed=p.seed), threads=1)
    model = p.roundtrip("linear.model_io_s", save_model, load_model, model,
                        "model.json", "linear.model_bytes")
    preds = p.run("linear.predict_s", predict, model, test8.features, k=100)
    preds = p.roundtrip("xcmetrics.io_s", save_preds, load_preds, preds,
                        "preds.txt")
    prop = p.run("xcmetrics.eval_s", propensities, train.labels)
    evaluate(p, preds, test.labels, prop)
    cooc = p.run("cooc.build_s", build_cooc, train, part)
    protos = p.run("reranking.prototypes_s", build_prototypes, cooc, train,
                   gamma=10.0)
    reranked = p.run("reranking.rerank_s", rerank_predictions, preds, protos,
                     test.features, alpha=0.8, shortlist=100)
    final = evaluate(p, reranked, test.labels, prop)
    return {"partitions": {"kmeans": part}, "agglomerated": [(train, train8), (test, test8)],
            "inputs": [train, test], "cooc": cooc, "n_labels": train.n_labels,
            "predictions": {"base": (preds, 100, "linear.predict_s"),
                            "reranked": (reranked, None, "reranking.rerank_s")},
            "quality": final}


def run_impute(p: Pass) -> dict:
    train = p.parse(p.paths[0])
    test = p.parse(p.paths[1])
    part, _ = p.partition(train, "kmeans")
    model = p.run("linear.train_s", train_ova, train,
                  OvaConfig(epochs=1, seed=p.seed), threads=1)
    cooc = p.run("cooc.build_s", build_cooc, train, part)
    cooc = p.roundtrip("cooc.io_s", save_cooc, load_cooc, cooc, "cooc.json")
    erased = p.run("cooc.erase_s", erase_matrix, test.features, 0.5,
                   np.random.default_rng([p.seed, 1]))
    imputed = p.run("cooc.impute_s", impute_matrix, cooc, erased, lam=0.0)
    preds_erased = p.run("linear.predict_s", predict, model, erased, k=1)
    preds_imputed = p.run("linear.predict_s", predict, model, imputed, k=1)

    def p_at_1():
        return (precision_at_k(preds_erased, test.labels, 1),
                precision_at_k(preds_imputed, test.labels, 1))
    p1_erased, p1_imputed = p.run("xcmetrics.eval_s", p_at_1)
    out_path = p.file("test_imputed.txt")
    p.run("dataio.write_s", save_xc, Dataset(imputed, test.labels), out_path)
    p.add("dataio.bytes_out", os.path.getsize(out_path))
    return {"partitions": {"kmeans": part}, "agglomerated": [],
            "inputs": [train, test], "cooc": cooc, "n_labels": train.n_labels,
            "predictions": {"erased": (preds_erased, 1, "linear.predict_s"),
                            "imputed": (preds_imputed, 1, "linear.predict_s")},
            "quality": {"p_at_1": p1_imputed,
                        "impute_gain_pp": 100.0 * (p1_imputed - p1_erased)}}


PIPELINES = {"cluster": run_cluster, "rerank": run_rerank, "impute": run_impute}


def check_pass(stages, out: dict, pinned: dict | None) -> dict[str, str]:
    """Output checks of one pass; returns the partition digests."""
    digests = {}
    lo = (D0 + 1) // 2  # every workload has d > D0
    for kind, part in out["partitions"].items():
        metric = "tree.io_s" if kind.endswith("_loaded") else f"tree.{kind}_s"
        sizes = part.sizes()
        stages.check(metric, bool(sizes.min() >= lo and sizes.max() <= D0),
                     f"{kind} leaf sizes outside [{lo}, {D0}]")
        digests[kind] = digest(part)
    for kind in list(digests):
        if kind.endswith("_loaded"):
            stages.check("tree.io_s", digests.pop(kind) == digests[kind[:-7]],
                         f"{kind} partition differs after save and load")
    if pinned is not None:
        for kind, value in digests.items():
            stages.check(f"tree.{kind}_s", pinned.get(kind) == value,
                         f"{kind} partition digest differs from the pinned one")
    for before, after in out["agglomerated"]:
        stages.check("agglomerate.s",
                     bool(np.all(after.features.row_nnz() <= before.features.row_nnz())),
                     "an agglomerated row is denser than its input")
    if "cooc" in out:
        stages.check("cooc.build_s",
                     out["cooc"].stored_entries() <= out["cooc"].d * D0,
                     "stored_entries exceeds d*d0")
    n_test = out["inputs"][-1].n
    for name, (preds, k, metric) in out.get("predictions", {}).items():
        stages.check(metric, well_formed(preds, n_test, k, out["n_labels"]),
                     f"{name} predictions are not well-formed")
    return digests


def well_formed(preds, n_rows: int, k: int | None, n_labels: int) -> bool:
    """One list per row, each of length k (at most 100 when k is None), with
    in-range unique labels and non-increasing scores."""
    if len(preds) != n_rows:
        return False
    for pr in preds:
        n = pr.labels.shape[0]
        if (n != k) if k is not None else not 0 < n <= 100:
            return False
        if n and (pr.labels.min() < 0 or pr.labels.max() >= n_labels):
            return False
        if np.unique(pr.labels).shape[0] != n or np.any(np.diff(pr.scores) > 0):
            return False
    return True
