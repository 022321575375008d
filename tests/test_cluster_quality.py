import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from featagg import kernels, synth
from featagg.agglomerate import MODES, SUM, agglomerate_matrix
from featagg.cluster_quality import (
    balance_factor,
    lmi,
    mutual_information,
    normalized_entropy,
    quality_report,
)
from featagg.tree import FeaturePartition

from helpers import dataset_from_dense, dense_mi_oracle, matrix_from_dense


def identity_partition(d):
    return FeaturePartition.from_clusters(d, [np.array([j]) for j in range(d)])


class TestMutualInformation:
    def test_perfect_dependence_two_labels(self):
        # features are the one-hot labels themselves, equiprobable
        ds = dataset_from_dense(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            [{0}, {1}, {0}, {1}],
            2,
        )
        mi = mutual_information(ds.features, ds.labels)
        assert mi == pytest.approx(math.log(2), rel=1e-12)

    def test_independent_joint_is_zero(self):
        # rank-1 joint: every feature fires identically for every label
        ds = dataset_from_dense(
            [[1.0, 2.0], [1.0, 2.0]], [{0}, {1}], 2
        )
        mi = mutual_information(ds.features, ds.labels)
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_joint(self):
        # joint mass [[0.4, 0.1], [0.1, 0.4]]
        ds = dataset_from_dense(
            [[0.4, 0.1], [0.1, 0.4]], [{0}, {1}], 2
        )
        mi = mutual_information(ds.features, ds.labels)
        direct = (
            2 * 0.4 * math.log(0.4 / 0.25) + 2 * 0.1 * math.log(0.1 / 0.25)
        )
        assert mi == pytest.approx(direct, rel=1e-12)
        assert mi == pytest.approx(0.1927, abs=5e-5)

    def test_matches_dense_oracle(self, rng):
        feats = rng.random((15, 7)) * (rng.random((15, 7)) > 0.4)
        labels = [set(np.flatnonzero(rng.random(4) > 0.5).tolist()) or {0}
                  for _ in range(15)]
        ds = dataset_from_dense(feats, labels, 4)
        mi = mutual_information(ds.features, ds.labels)
        oracle = dense_mi_oracle(ds.features.to_dense(), ds.labels.to_dense())
        assert mi == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_nonnegative_and_scale_invariant(self, rng):
        feats = rng.random((12, 6)) * (rng.random((12, 6)) > 0.3)
        labels = [{int(rng.integers(3))} for _ in range(12)]
        ds = dataset_from_dense(feats, labels, 3)
        mi = mutual_information(ds.features, ds.labels)
        scaled = dataset_from_dense(feats * 7.5, labels, 3)
        assert mi >= -1e-12
        assert mutual_information(scaled.features, ds.labels) == pytest.approx(
            mi, rel=1e-9
        )

    def test_all_zero_joint_errors(self):
        ds = dataset_from_dense([[0.0, 0.0]], [{0}], 1)
        with pytest.raises(ValueError):
            mutual_information(ds.features, ds.labels)

    def test_rejects_negative_features(self):
        m = matrix_from_dense([[1.0, -1.0]])
        y = matrix_from_dense([[1.0]])
        with pytest.raises(ValueError):
            mutual_information(m, y)


class TestLmi:
    def test_identity_partition_is_lossless(self, rng):
        feats = rng.random((10, 6)) * (rng.random((10, 6)) > 0.3)
        labels = [{int(rng.integers(3))} for _ in range(10)]
        ds = dataset_from_dense(feats, labels, 3)
        part = identity_partition(6)
        agg = agglomerate_matrix(ds.features, part, SUM)
        assert abs(lmi(ds.features, agg, ds.labels)) <= 1e-12

    def test_one_cluster_against_oracle(self):
        ds = dataset_from_dense(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            [{0}, {1}, {0}, {1}],
            2,
        )
        part = FeaturePartition.from_clusters(2, [np.array([0, 1])])
        agg = agglomerate_matrix(ds.features, part, SUM)
        got = lmi(ds.features, agg, ds.labels)
        X, Xa = ds.features.to_dense(), agg.to_dense()
        Y = ds.labels.to_dense()
        expected = (dense_mi_oracle(X, Y) - dense_mi_oracle(Xa, Y)) / dense_mi_oracle(X, Y)
        assert got == pytest.approx(expected, abs=1e-9)
        # collapsing everything onto one feature destroys all information
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_zero_information_errors(self):
        ds = dataset_from_dense([[1.0, 1.0], [1.0, 1.0]], [{0}, {1}], 2)
        part = identity_partition(2)
        agg = agglomerate_matrix(ds.features, part, SUM)
        with pytest.raises(ValueError):
            lmi(ds.features, agg, ds.labels)


class TestBalanceFactor:
    def test_equal_sizes(self):
        assert balance_factor([4, 4]) == 1.0

    def test_five_four(self):
        assert balance_factor([5, 4]) == 1.25

    def test_empty_cluster_is_infinite(self):
        assert balance_factor([3, 0, 2]) == math.inf

    def test_accepts_partition(self):
        part = FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])])
        assert balance_factor(part) == 2.0


class TestNormalizedEntropy:
    def test_equal_clusters_score_one(self):
        assert normalized_entropy([4, 4, 4, 4]) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster(self):
        assert normalized_entropy([16]) == 0.0

    def test_all_singletons(self):
        assert normalized_entropy([1] * 10) == pytest.approx(1.0, rel=1e-12)

    def test_skew_scores_below_one(self):
        assert normalized_entropy([13, 1, 1, 1]) < 0.7

    def test_balanced_tree_partitions_score_high(self, rng):
        # size-4 and size-5 leaves mixed: still essentially uniform
        sizes = [4] * 120 + [5] * 135
        assert normalized_entropy(sizes) >= 0.99

    def test_small_d_errors(self):
        with pytest.raises(ValueError):
            normalized_entropy([1])


def test_quality_report_fields(rng):
    feats = rng.random((10, 8)) * (rng.random((10, 8)) > 0.3)
    labels = [{int(rng.integers(3))} for _ in range(10)]
    ds = dataset_from_dense(feats, labels, 3)
    part = FeaturePartition.from_clusters(8, [np.arange(0, 4), np.arange(4, 8)])
    report = quality_report(ds, part)
    assert 0.0 <= report.lmi <= 1.0
    assert report.balance == 1.0
    assert 0.0 <= report.normalized_entropy <= 1.0
    assert set(report.to_dict()) == {"lmi", "balance", "normalized_entropy"}


def shuffled_partition(rng, d, sizes):
    """Clusters of the given sizes over a random permutation of [0, d)."""
    return FeaturePartition.from_sizes(d, rng.permutation(d), np.asarray(sizes))


@st.composite
def lmi_inputs(draw):
    """A dataset and a partition of its features: rows from empty to dense,
    with integer values (whose sums tie exactly) or not, rows without labels
    (so some features carry no label mass), and from one cluster to
    singletons, in shuffled member order."""
    n, d, n_labels = draw(st.integers(2, 40)), draw(st.integers(1, 30)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = rng.choice([0.0, 0.2, 0.6, 1.0], size=(n, 1))
    feats = rng.random((n, d)) * (rng.random((n, d)) < density)
    if draw(st.booleans()):
        feats = np.ceil(feats * 3.0)
    labels = [set(np.flatnonzero(rng.random(n_labels) < q).tolist())
              for q in rng.choice([0.0, 0.3, 0.8], size=n)]
    k = draw(st.integers(1, d))
    cuts = np.sort(rng.choice(np.arange(1, d), k - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [d])))
    return dataset_from_dense(feats, labels, n_labels), shuffled_partition(rng, d, sizes)


@settings(max_examples=200, deadline=None)
@given(inputs=lmi_inputs(), mode=st.sampled_from(MODES))
def test_report_lmi_equals_lmi_of_agglomerated_matrix(inputs, mode):
    ds, part = inputs
    X, Y = ds.features, ds.labels
    try:
        base = mutual_information(X, Y)
    except ValueError as err:  # an all-zero joint
        with pytest.raises(ValueError, match=str(err)):
            quality_report(ds, part, mode)
        return
    # a base that rounding may put on either side of 0 says nothing
    assume(abs(base) > 1e-9)
    if base < 0.0:
        with pytest.raises(ValueError, match="no label information"):
            quality_report(ds, part, mode)
        return
    want = lmi(X, agglomerate_matrix(X, part, mode), Y)
    # each mutual information is a sum of terms p * ln(...) of either sign,
    # rounded relative to those terms (at most about ln of the joint's
    # range), not to their sum; lmi divides the two sums' rounding by base
    assert math.isclose(quality_report(ds, part, mode).lmi, want, rel_tol=1e-12,
                        abs_tol=1e-13 / base)


def grouped_joint_oracle(ds, part, mode):
    """Per (cluster, label) with mass, the agglomerated joint's entry: each
    feature's joint entry sums its rows in order, and a cluster's entry sums
    its members' in member order, one addition at a time."""
    X, Y = ds.features.to_dense(), ds.labels.to_dense()
    joint = {}
    for j in range(X.shape[1]):
        for i in np.flatnonzero(X[:, j]).tolist():
            for label in np.flatnonzero(Y[i]).tolist():
                joint[j, label] = joint.get((j, label), 0.0) + float(X[i, j])
    out = {}
    for k, members in enumerate(part.clusters):
        for label in range(Y.shape[1]):
            total = None
            for j in members.tolist():
                if (j, label) in joint:
                    total = joint[j, label] if total is None else total + joint[j, label]
            if total is not None:
                out[k, label] = total / members.shape[0] if mode == "avg" else total
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", [1, 3, 7, 2**14])
def test_agglomerated_sums_do_not_depend_on_the_chunk_budget(monkeypatch, budget, mode):
    # small budgets cut most clusters, one feature row per chunk at budget 1
    rng = np.random.default_rng(11)
    feats = rng.random((60, 40)) * (rng.random((60, 40)) < 0.3)
    labels = [set(np.flatnonzero(rng.random(5) < 0.4).tolist()) for _ in range(60)]
    ds = dataset_from_dense(feats, labels, 5)
    part = shuffled_partition(rng, 40, [1, 12, 3, 7, 9, 2, 6])
    want = lmi(ds.features, agglomerate_matrix(ds.features, part, mode), ds.labels)
    monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", budget)
    seen = {}
    terms = kernels._mi_terms

    def spy(p, rows, cols, row_sums, *rest):
        if row_sums.shape[0] == part.n_clusters:  # the agglomerated joint's
            for key, value in zip(zip(rows.tolist(), cols.tolist()), p.tolist()):
                assert key not in seen
                seen[key] = value
        return terms(p, rows, cols, row_sums, *rest)

    monkeypatch.setattr(kernels, "_mi_terms", spy)
    got = quality_report(ds, part, mode).lmi
    assert seen == grouped_joint_oracle(ds, part, mode)  # bit for bit
    assert math.isclose(got, want, rel_tol=1e-12)


def test_report_errors_match_lmi_of_agglomerated_matrix():
    ok = dataset_from_dense([[1.0, 0.0], [0.0, 1.0]], [{0}, {1}], 2)
    # a Dataset refuses negative features, so one is written in afterwards
    negative = dataset_from_dense([[1.0, 1.0], [0.0, 1.0]], [{0}, {1}], 2)
    negative.features.values[1] = -1.0
    cases = [
        (ok, FeaturePartition.from_clusters(3, [np.arange(3)]),
         "matrix cols 2 != partition dim 3"),
        (negative, None, "feature values must be nonnegative"),
        (dataset_from_dense([[0.0, 0.0], [0.0, 0.0]], [{0}, {1}], 2), None,
         "all-zero feature-label joint"),
        (dataset_from_dense([[1.0, 1.0], [1.0, 1.0]], [{0}, {1}], 2), None,
         "original features carry no label information"),
    ]
    for ds, part, message in cases:
        part = part or identity_partition(2)
        for mode in MODES:
            for compute in (lambda: lmi(ds.features, agglomerate_matrix(ds.features, part, mode),
                                        ds.labels),
                            lambda: quality_report(ds, part, mode)):
                with pytest.raises(ValueError, match=message):
                    compute()
    with pytest.raises(ValueError, match="mode must be one of"):
        quality_report(ok, identity_partition(2), "max")


def test_report_holds_no_agglomerated_copy():
    # the cluster benchmark's shape: the report's peak stays below what
    # agglomerating X and then taking lmi peaks at
    ds = synth.random_dataset(np.random.default_rng(0), n=3000, d=2048, nnz_per_row=16,
                              n_labels=64, labels_per_row=2)
    part = shuffled_partition(np.random.default_rng(1), 2048, [8] * 256)
    peaks = []
    for compute in (lambda: quality_report(ds, part),
                    lambda: lmi(ds.features, agglomerate_matrix(ds.features, part),
                                ds.labels)):
        tracemalloc.start()
        try:
            compute()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]
