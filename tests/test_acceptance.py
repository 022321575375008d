"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v` for the per-criterion verdicts.
Criterion 11 needs a real dataset file and is opt-in via the FEATAGG_EURLEX
environment variable (path to the EURLex-4K train split in sparse text form).
"""

import math
import os
import time

import numpy as np
import pytest

from featagg import reranking
from featagg.agglomerate import AVERAGE, SUM, agglomerate_dataset, agglomerate_vec
from featagg.bounds import lemma1_trials, thm1_check, thm1_trials, thm2_check, thm2_trials
from featagg.cluster_quality import (
    balance_factor,
    lmi,
    mutual_information,
    normalized_entropy,
)
from featagg.cooc import build_cooc, erase_matrix, impute, impute_matrix
from featagg.dataio import load_xc
from featagg.linear import OvaConfig, OvaModel, predict, train_ova
from featagg.reprs import ReprSet, build as build_reprs
from featagg.reranking import build_prototypes, rerank_predictions
from featagg.splits import Ranking, ndcg, ndcg_split
from featagg.sparse import SparseMatrix, SparseVec
from featagg.synth import duplicated_group_dataset, powerlaw_dataset, random_dataset, split_points
from featagg.tree import FeaturePartition, leaves, make_tree
from featagg.xcmetrics import (
    PropensityModel,
    coverage_at_k,
    percentile_macro_precision,
    precision_at_k,
    psp_at_k,
)

from helpers import adjusted_rand_index, dense_cooc_oracle, dataset_from_dense


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def random_repr_set(rng, d: int, p: int = 6) -> ReprSet:
    """Row i holds k_i ~ Binomial(p, 1/2) distinct uniform columns of p.

    The columns come from the draws that a rng.choice(p, k_i, replace=False)
    per row would make, and the generator ends in the same state: numpy runs
    Floyd's algorithm for populations of up to 10 000, whose k draws have
    exclusive bounds p - k + 1 ... p, then shuffles the sample with k - 1
    draws of bounds k ... 2. One rng.integers call makes every row's draws in
    that order, and Floyd's steps rebuild the sets a step for all rows at a
    time: a drawn column the row already holds becomes p - k + s at step s.
    The shuffle only reorders, and the columns are stored sorted.
    """
    nnz = rng.binomial(p, 0.5, size=d)
    k = nnz[nnz > 0]
    seg = 2 * k - 1  # Floyd's draws, then the shuffle's
    start = np.cumsum(seg) - seg
    t = np.arange(int(seg.sum())) - np.repeat(start, seg)
    kk = np.repeat(k, seg)
    draws = rng.integers(0, np.where(t < kk, p - kk + 1 + t, 2 * kk - t))
    held = np.zeros((k.size, p), dtype=bool)
    for s in range(p):
        rows = np.flatnonzero(k > s)
        col = draws[start[rows] + s]
        taken = held[rows, col]
        held[rows, np.where(taken, p - k[rows] + s, col)] = True
    indptr = np.concatenate(([0], np.cumsum(nnz))).astype(np.int64)
    indices = np.nonzero(held)[1].astype(np.int64)
    values = rng.uniform(0.1, 1.0, size=int(nnz.sum()))
    m = SparseMatrix(d, p, indptr, indices, values, validate=False)
    return ReprSet(matrix=m, kind="x")


def test_criterion_01_partition_structure():
    rng = np.random.default_rng(20240801)
    entropy_checked = 0
    t0 = time.perf_counter()
    for trial in range(200):
        d = int(rng.integers(2, 5001))
        d0 = 8 if trial % 4 == 0 else int(rng.integers(2, 33))
        seed = int(rng.integers(1 << 30))
        part = leaves(make_tree(random_repr_set(rng, d), d0=d0, seed=seed))
        covered = np.sort(np.concatenate(part.clusters))
        assert np.array_equal(covered, np.arange(d))
        sizes = part.sizes()
        assert sizes.max() <= d0
        if d > d0:
            assert sizes.min() >= (d0 + 1) // 2
            assert balance_factor(part) <= 2.0
        if d >= 256 and d0 == 8:
            assert normalized_entropy(part) >= 0.99
            entropy_checked += 1
    elapsed = time.perf_counter() - t0
    assert entropy_checked > 0
    assert elapsed < 60.0
    report(1, f"200 random partitions structurally valid in {elapsed:.1f}s "
              f"({entropy_checked} entropy checks)")


def test_criterion_02_lemma1_suite():
    t0 = time.perf_counter()
    out = lemma1_trials(1000, seed=42)
    elapsed = time.perf_counter() - t0
    assert out["all_hold"]
    assert out["worst_rel_excess"] <= 1e-9
    assert elapsed < 60.0
    report(2, f"1000 trials hold, worst relative excess "
              f"{out['worst_rel_excess']:.2e} in {elapsed:.1f}s")


def test_criterion_03_theorem_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ds, _ = duplicated_group_dataset(rng, n=256, groups=64, copies=8, n_labels=16)
    part = FeaturePartition.from_clusters(
        512, [np.arange(g * 8, (g + 1) * 8) for g in range(64)]
    )
    w = rng.normal(size=512)
    rep1 = thm1_check(ds, part, w)
    assert rep1.lhs <= 1e-9
    rep2 = thm2_check(ds, part, rng.normal(size=512), rng.normal(size=512))
    assert rep2.lhs <= 1e-9

    out1 = thm1_trials(200, seed=7)
    assert out1["all_hold"]
    out2 = thm2_trials(200, seed=8)
    assert out2["all_hold"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"duplicated-feature lhs {rep1.lhs:.2e}/{rep2.lhs:.2e}; "
              f"200+200 random trials hold in {elapsed:.1f}s")


def test_criterion_04_agglomeration_contracts():
    rng = np.random.default_rng(4)
    d = 24
    identity = FeaturePartition.from_clusters(d, [np.array([j]) for j in range(d)])
    for _ in range(10_000):
        k = int(rng.integers(1, 5))
        perm = rng.permutation(d)
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        part = FeaturePartition.from_clusters(
            d, [np.sort(c) for c in np.split(perm, cuts)]
        )
        nnz = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        vals = rng.integers(-9, 10, size=nnz).astype(np.float64)
        x = SparseVec(d, idx, vals)  # strips any sampled zeros
        out = agglomerate_vec(x, part, SUM)
        assert out.nnz <= x.nnz
        assert out.values.sum() == x.values.sum()  # integers sum exactly
        assert agglomerate_vec(x, identity, SUM) == x
    report(4, "10^4 random vectors: nnz never grows, integer sums exact, "
              "identity partition is the identity")


def test_criterion_05_metric_identities():
    rng = np.random.default_rng(5)
    # LMI under the identity partition is zero
    feats = rng.random((20, 10)) * (rng.random((20, 10)) > 0.3)
    labels = [{int(rng.integers(4))} for _ in range(20)]
    ds = dataset_from_dense(feats, labels, 4)
    identity = FeaturePartition.from_clusters(10, [np.array([j]) for j in range(10)])
    agg = agglomerate_dataset(ds, identity, SUM)
    assert abs(lmi(ds.features, agg.features, ds.labels)) <= 1e-12

    # MI on an independent joint is 0; perfect two-label dependence gives ln 2
    indep = dataset_from_dense([[1.0, 2.0], [1.0, 2.0]], [{0}, {1}], 2)
    assert abs(mutual_information(indep.features, indep.labels)) <= 1e-9
    perfect = dataset_from_dense(
        [[1.0, 0.0], [0.0, 1.0]] * 2, [{0}, {1}, {0}, {1}], 2
    )
    assert mutual_information(perfect.features, perfect.labels) == pytest.approx(
        math.log(2), abs=1e-9
    )

    # the ideal ranking scores exactly 1
    for _ in range(20):
        v = rng.random(8) * (rng.random(8) > 0.3)
        if v.any():
            assert ndcg(Ranking.rank_of(v), v) == pytest.approx(1.0, rel=1e-12)

    # unit propensities reduce the weighted metric to plain precision
    from featagg.linear import predict as _predict

    toy, _ = duplicated_group_dataset(rng, n=60, groups=4, copies=2, n_labels=6)
    model = train_ova(toy, OvaConfig(epochs=3, seed=0))
    preds = _predict(model, toy.features, k=3)
    unit = PropensityModel(p=np.ones(6), A=0.55, B=1.5)
    for k in (1, 3):
        assert psp_at_k(preds, toy.labels, unit, k) == pytest.approx(
            precision_at_k(preds, toy.labels, k), rel=1e-12
        )

    # changing the log base changes no gain ratio and no split
    rows = rng.random((12, 6)) * (rng.random((12, 6)) > 0.4)
    rs = ReprSet(matrix=SparseMatrix.from_rows(
        [SparseVec.from_dense(r) for r in rows], 6), kind="x")
    v = rng.random(9)
    perm = Ranking(rng.permutation(9))
    assert ndcg(perm, v) == pytest.approx(ndcg(perm, v, base=2.0), rel=1e-12)
    for base in (2.0, 10.0):
        a = ndcg_split(np.arange(12), rs, np.random.default_rng(1))
        b = ndcg_split(np.arange(12), rs, np.random.default_rng(1), base=base)
        assert np.array_equal(a.s_plus, b.s_plus)
    report(5, "LMI/MI/gain/propensity/log-base identities all hold")


@pytest.fixture(scope="module")
def preservation_setup():
    rng = np.random.default_rng(7)
    ds, truth = duplicated_group_dataset(rng, n=4000, groups=64, copies=8,
                                         n_labels=32)
    train, test = split_points(ds, 2000)
    rs = build_reprs(train, mode="x", doc_fraction=0.25)
    part = leaves(make_tree(rs, d0=8, seed=0))
    model_orig = train_ova(train, OvaConfig(epochs=20, lr=0.5, l2=1e-4, seed=0))
    return train, test, truth, part, model_orig


def test_criterion_06_end_to_end_preservation(preservation_setup):
    t0 = time.perf_counter()
    train, test, truth, part, model_orig = preservation_setup
    ari = adjusted_rand_index(truth, part.cluster_of)
    assert ari >= 0.95

    p1_orig = precision_at_k(predict(model_orig, test.features, 1), test.labels, 1)
    # averaged agglomeration keeps feature scales comparable for SGD
    agg_train = agglomerate_dataset(train, part, AVERAGE)
    agg_test = agglomerate_dataset(test, part, AVERAGE)
    model_agg = train_ova(agg_train, OvaConfig(epochs=20, lr=0.5, l2=1e-4, seed=0))
    p1_agg = precision_at_k(
        predict(model_agg, agg_test.features, 1), agg_test.labels, 1
    )
    diff_pp = abs(p1_orig - p1_agg) * 100.0
    elapsed = time.perf_counter() - t0
    assert diff_pp <= 1.0
    assert elapsed < 300.0
    report(6, f"ARI={ari:.3f}; P@1 {p1_orig:.4f} vs {p1_agg:.4f} "
              f"({diff_pp:.2f}pp) in {elapsed:.1f}s")


def test_criterion_07_imputation_robustness(preservation_setup):
    train, test, _, part, model_orig = preservation_setup
    c = build_cooc(train, part)
    gaps = {}
    for fraction in (0.25, 0.5, 0.75):
        erased = erase_matrix(test.features, fraction, np.random.default_rng(11))
        p_plain = precision_at_k(predict(model_orig, erased, 1), test.labels, 1)
        imputed = impute_matrix(c, erased, lam=0.0)
        p_imputed = precision_at_k(predict(model_orig, imputed, 1), test.labels, 1)
        gaps[fraction] = p_imputed - p_plain
    assert gaps[0.5] >= 0.0
    assert gaps[0.75] >= gaps[0.25]
    report(7, "imputation gaps (pp): " + ", ".join(
        f"{int(f * 100)}%={g * 100:+.2f}" for f, g in sorted(gaps.items())
    ))


def test_criterion_08_rerank_coverage():
    rng = np.random.default_rng(3)
    ds = powerlaw_dataset(rng, n=2500, d=64, n_labels=500, bundle_size=3,
                          zipf_exponent=1.3, noise_features=4)
    train, test = split_points(ds, 2000)
    rs = build_reprs(train, mode="x", doc_fraction=0.25)
    part = leaves(make_tree(rs, d0=8, seed=0))
    model = train_ova(train, OvaConfig(epochs=5, l2=1e-3, seed=0))
    base = predict(model, test.features, k=100)
    c = build_cooc(train, part)
    ps = build_prototypes(c, train, normalize=True, gamma=10.0)
    reranked = rerank_predictions(base, ps, test.features, alpha=0.8,
                                  shortlist=100)
    cov_base = coverage_at_k(base, test.labels, 1)
    cov_rerank = coverage_at_k(reranked, test.labels, 1)
    assert cov_rerank >= cov_base

    buckets = [(0.0, 50.0), (50.0, 100.0)]
    macro_base = percentile_macro_precision(base, test.labels, train.labels, 1,
                                            buckets)
    macro_rerank = percentile_macro_precision(reranked, test.labels,
                                              train.labels, 1, buckets)
    assert macro_rerank[1] >= macro_base[1]
    report(8, f"coverage@1 {cov_base:.4f} -> {cov_rerank:.4f}; rare-half macro "
              f"precision {macro_base[1]:.4f} -> {macro_rerank[1]:.4f}")


def test_criterion_09_dense_oracles():
    rng = np.random.default_rng(9)
    d = 64
    feats = rng.random((40, d)) * (rng.random((40, d)) > 0.6)
    labels = [set(rng.choice(8, size=2, replace=False).tolist()) for _ in range(40)]
    ds = dataset_from_dense(feats, labels, 8)
    perm = rng.permutation(d)
    clusters = [np.sort(c) for c in np.split(perm, [10, 25, 40, 52])]
    part = FeaturePartition.from_clusters(d, clusters)
    c = build_cooc(ds, part)
    C = dense_cooc_oracle(feats, part.clusters)
    for k, cluster in enumerate(part.clusters):
        assert np.allclose(c.blocks[k], C[np.ix_(cluster, cluster)], atol=1e-9)
    for _ in range(10):
        x = rng.random(d) * (rng.random(d) > 0.5)
        assert np.allclose(
            impute(c, SparseVec.from_dense(x)).to_dense(), C @ x, atol=1e-9
        )
    ps = build_prototypes(c, ds, normalize=False)
    oracle = C @ feats.T @ ds.labels.to_dense()
    for l in range(8):
        assert np.allclose(ps.prototype(l).to_dense(), oracle[:, l], atol=1e-9)
    report(9, "co-occurrence blocks, imputation and prototypes match dense "
              "oracles entrywise within 1e-9")


def _cluster_seconds(n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 4096, n_labels=4, nnz_per_row=16)
    t0 = time.perf_counter()
    rs = build_reprs(ds, mode="x", doc_fraction=0.25)
    leaves(make_tree(rs, d0=8, seed=seed))
    return time.perf_counter() - t0


def test_criterion_10_scaling():
    t0 = time.perf_counter()
    _cluster_seconds(2000, seed=1)  # warm-up: first-call costs stay out of the ratio
    t_small = _cluster_seconds(20000, seed=0)
    t_large = _cluster_seconds(40000, seed=0)
    ratio = t_large / t_small
    elapsed = time.perf_counter() - t0
    assert ratio <= 2.5
    assert elapsed < 180.0
    report(10, f"double-the-points wall-time ratio {ratio:.2f} "
               f"({t_small * 1000:.0f}ms -> {t_large * 1000:.0f}ms)")


EURLEX = os.environ.get("FEATAGG_EURLEX", "")


@pytest.mark.skipif(not EURLEX, reason="set FEATAGG_EURLEX to the EURLex train file")
def test_criterion_11_eurlex_spot_check():
    ds = load_xc(EURLEX)
    assert (ds.n, ds.d, ds.n_labels) == (15539, 5000, 3993)
    from featagg.dataio import stats

    s = stats(ds)
    assert s.avg_nnz_features == pytest.approx(236.8, abs=0.5)
    assert s.avg_labels == pytest.approx(5.31, abs=0.05)
    t0 = time.perf_counter()
    rs = build_reprs(ds, mode="x", doc_fraction=0.25)
    part = leaves(make_tree(rs, d0=8, seed=0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert balance_factor(part) <= 1.3
    assert normalized_entropy(part) >= 0.99
    report(11, f"EURLex clustered in {elapsed:.1f}s, balance "
               f"{balance_factor(part):.2f}, entropy {normalized_entropy(part):.3f}")


@pytest.fixture(scope="module")
def paper_shape():
    """A synthetic dataset of EURLex's statistics (15539 points, 5000
    features, 237 stored per point, 3993 labels, 5 per point), which needs no
    download."""
    return random_dataset(np.random.default_rng(0), 15539, 5000, n_labels=3993,
                          nnz_per_row=237, labels_per_row=5)


def test_criterion_12_paper_shape_clustering(paper_shape):
    # criterion 11's clustering checks on the paper-shape synthetic dataset
    ds = paper_shape
    t0 = time.perf_counter()
    rs = build_reprs(ds, mode="x", doc_fraction=0.25)
    part = leaves(make_tree(rs, d0=8, split_kind="kmeans", seed=0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert balance_factor(part) <= 1.3
    assert normalized_entropy(part) >= 0.99
    report(12, f"paper-shape synthetic clustered in {elapsed:.1f}s, balance "
               f"{balance_factor(part):.2f}, entropy {normalized_entropy(part):.3f}")


# Wall-time bounds in seconds, about 3x each stage's time on a 2-core x86-64
# host (numpy backend): agglomerate 0.18, cooc 0.14, erase 0.04, impute 0.15,
# predict 2.49, prototypes 1.49, rerank 1.10.
PAPER_STAGE_BOUNDS = {"agglomerate": 0.55, "cooc": 0.45, "erase": 0.12, "impute": 0.45,
                      "predict": 7.5, "prototypes": 4.5, "rerank": 3.3}


def test_criterion_13_paper_shape_prediction(paper_shape):
    # the prediction half of criterion 11 on the paper-shape synthetic
    # dataset, each stage under its own wall-time bound; a seeded random
    # model stands in for training
    train, test = split_points(paper_shape, 12000)
    part = leaves(make_tree(build_reprs(train, mode="x", doc_fraction=0.25), d0=8,
                            split_kind="kmeans", seed=0))
    seconds = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds[stage] = time.perf_counter() - t0
        return out

    timed("agglomerate", lambda: (agglomerate_dataset(train, part),
                                  agglomerate_dataset(test, part)))
    c = timed("cooc", lambda: build_cooc(train, part))
    erased = timed("erase", lambda: erase_matrix(test.features, 0.5,
                                                 np.random.default_rng(1)))
    timed("impute", lambda: impute_matrix(c, erased))
    rng = np.random.default_rng(2)
    model = OvaModel(np.asfortranarray(rng.normal(size=(3993, 5000))),
                     rng.normal(size=3993), OvaConfig(seed=0))
    base = timed("predict", lambda: predict(model, test.features, k=100))
    del model
    ps = timed("prototypes", lambda: build_prototypes(c, train, normalize=True,
                                                      gamma=10.0))
    # the rerank bound times the gather path
    assert reranking._gather_pays(ps, test.features, base.head(100))
    reranked = timed("rerank", lambda: rerank_predictions(base, ps, test.features,
                                                          shortlist=100))
    assert len(reranked) == test.n
    slow = {k: round(v, 2) for k, v in seconds.items() if v >= PAPER_STAGE_BOUNDS[k]}
    assert not slow, f"stages over their bounds {PAPER_STAGE_BOUNDS}: {slow}"
    report(13, "paper-shape stages (s): " + ", ".join(
        f"{k} {v:.2f}" for k, v in seconds.items()))
