import math

import numpy as np
import pytest

from featagg.agglomerate import SUM, agglomerate_matrix
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
