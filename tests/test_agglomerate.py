import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featagg.agglomerate import (
    AVERAGE,
    SUM,
    agglomerate_dataset,
    agglomerate_matrix,
    agglomerate_vec,
)
from featagg.sparse import SparseVec
from featagg.tree import FeaturePartition

from helpers import dataset_from_dense, matrix_from_dense, vec


@pytest.fixture
def two_cluster_part():
    return FeaturePartition.from_clusters(4, [np.array([0, 1]), np.array([2, 3])])


class TestAgglomerateVec:
    def test_sum(self, two_cluster_part):
        x = SparseVec.from_dense(np.array([1.0, 0.0, 2.0, 3.0]))
        assert agglomerate_vec(x, two_cluster_part, SUM) == vec(2, {0: 1.0, 1: 5.0})

    def test_average(self, two_cluster_part):
        x = SparseVec.from_dense(np.array([1.0, 0.0, 2.0, 3.0]))
        out = agglomerate_vec(x, two_cluster_part, AVERAGE)
        assert out == vec(2, {0: 0.5, 1: 2.5})

    def test_identity_partition_is_identity(self):
        part = FeaturePartition.from_clusters(3, [np.array([j]) for j in range(3)])
        x = vec(3, {0: 1.5, 2: -2.0})
        assert agglomerate_vec(x, part, SUM) == x

    def test_dimension_mismatch(self, two_cluster_part):
        with pytest.raises(ValueError):
            agglomerate_vec(vec(3, {0: 1.0}), two_cluster_part)

    def test_exact_cancellation_stripped(self, two_cluster_part):
        x = SparseVec(4, [0, 1], [2.0, -2.0])
        assert agglomerate_vec(x, two_cluster_part, SUM).nnz == 0

    @pytest.mark.parametrize("mode", [SUM, AVERAGE])
    def test_bitwise_equal_to_matrix_rows(self, rng, mode):
        feats = rng.normal(size=(40, 12)) * (rng.random((40, 12)) > 0.4)
        # rows whose cluster sums cancel exactly (2 - 2) and inexactly
        # (0.1 + 0.2 - 0.3 is 5.6e-17); row 2 stays empty
        feats[0, :] = 0.0
        feats[0, [0, 4]] = [2.0, -2.0]
        feats[1, :] = 0.0
        feats[1, [0, 4, 8]] = [0.1, 0.2, -0.3]
        feats[2, :] = 0.0
        sm = matrix_from_dense(feats)
        part = FeaturePartition.from_clusters(
            12, [np.array([0, 4, 8]), np.array([1, 2]), np.array([3, 5, 6, 7, 9]),
                 np.array([10]), np.array([11])]
        )
        rows = agglomerate_matrix(sm, part, mode)
        assert rows.row(0).nnz == 0 and rows.row(1).nnz == 1
        for i in range(sm.rows):
            out = agglomerate_vec(sm.row(i), part, mode)
            want = rows.row(i)
            assert out.dim == want.dim == part.n_clusters
            assert out.indices.tobytes() == want.indices.tobytes()
            assert out.values.tobytes() == want.values.tobytes()

    def test_bad_mode(self, two_cluster_part):
        with pytest.raises(ValueError):
            agglomerate_vec(vec(4, {0: 1.0}), two_cluster_part, "median")


class TestAgglomerateDataset:
    def test_labels_unchanged_and_dim_reduced(self, toy_dataset, two_cluster_part):
        agg = agglomerate_dataset(toy_dataset, two_cluster_part, SUM)
        assert agg.d == 2
        assert agg.labels == toy_dataset.labels

    def test_row_nnz_never_grows(self, rng):
        feats = rng.random((30, 12)) * (rng.random((30, 12)) > 0.5)
        ds = dataset_from_dense(feats, [set()] * 30, 1)
        part = FeaturePartition.from_clusters(
            12, [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12)]
        )
        agg = agglomerate_dataset(ds, part, SUM)
        assert np.all(agg.features.row_nnz() <= ds.features.row_nnz())

    def test_sum_preserves_integer_totals(self, rng):
        feats = rng.integers(0, 5, size=(20, 9)).astype(np.float64)
        ds = dataset_from_dense(feats, [set()] * 20, 1)
        part = FeaturePartition.from_clusters(
            9, [np.array([0, 4, 8]), np.array([1, 2]), np.array([3, 5, 6, 7])]
        )
        agg = agglomerate_dataset(ds, part, SUM)
        assert np.array_equal(
            agg.features.to_dense().sum(axis=1), feats.sum(axis=1)
        )


@st.composite
def vec_and_partition(draw):
    d = draw(st.integers(1, 16))
    pairs = draw(
        st.dictionaries(
            st.integers(0, d - 1),
            st.floats(-20, 20, allow_nan=False).filter(lambda v: v != 0),
            max_size=d,
        )
    )
    assignment = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    ids = sorted(set(assignment))
    remap = {g: i for i, g in enumerate(ids)}
    clusters = [
        np.array([j for j, g in enumerate(assignment) if remap[g] == k])
        for k in range(len(ids))
    ]
    return SparseVec.from_pairs(d, pairs), FeaturePartition.from_clusters(d, clusters)


@settings(max_examples=100)
@given(vec_and_partition())
def test_nnz_contract_and_sum_preservation(case):
    x, part = case
    out = agglomerate_vec(x, part, SUM)
    assert out.nnz <= x.nnz
    assert np.isclose(out.values.sum(), x.values.sum(), atol=1e-9)
