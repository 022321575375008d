import math

import numpy as np
import pytest

from featagg import kernels
from featagg.dataio import parse_xc
from featagg.reprs import (
    build_repr_x,
    build_repr_xy,
    normalize,
    selected_points,
)
from featagg.sparse import SparseMatrix, SparseVec
from helpers import dataset_from_dense, vec


def per_feature_repr_xy(ds, doc_fraction, label_fraction):
    """build_repr_xy as one weighted sum of label rows per feature."""
    sel = selected_points(ds.features, doc_fraction)
    L = ds.n_labels
    keep = math.ceil(label_fraction * L - 1e-9)
    counts = np.bincount(ds.labels.indices, minlength=L)
    sel_labels = np.sort(np.lexsort((np.arange(L), -counts))[:keep])
    y = ds.labels.take_rows(sel).to_dense()[:, sel_labels]
    y = SparseMatrix.from_rows([SparseVec.from_dense(r) for r in y], keep)
    xt = ds.features.take_rows(sel).transpose()
    rows = []
    for j in range(ds.d):
        s, e = xt.indptr[j], xt.indptr[j + 1]
        dense = kernels.weighted_sum_rows(
            y.indptr, y.indices, y.values, xt.indices[s:e], xt.values[s:e], keep
        )
        rows.append(SparseVec.from_dense(dense))
    return SparseMatrix.from_rows(rows, keep)


class TestBuildReprX:
    def test_full_fraction_is_transpose(self):
        # feature j takes values (1, 0, 2) across three points
        ds = dataset_from_dense(
            [[1.0, 5.0], [0.0, 1.0], [2.0, 1.0]], [{0}, {0}, {0}], 1
        )
        rs = build_repr_x(ds, doc_fraction=1.0)
        assert rs.ambient_dim == 3
        assert rs.repr_vec(0) == vec(3, {0: 1.0, 2: 2.0})
        dense = rs.matrix.to_dense()
        assert np.array_equal(dense, ds.features.to_dense().T)

    def test_subsample_ambient_dim(self, rng):
        n = 103
        feats = rng.random((n, 6)) * (rng.random((n, 6)) > 0.3)
        feats[feats.sum(axis=1) == 0, 0] = 1.0
        ds = dataset_from_dense(feats, [{0}] * n, 1)
        rs = build_repr_x(ds, doc_fraction=0.25)
        assert rs.ambient_dim == math.ceil(0.25 * n)

    def test_volume_ranking_hand_trace(self):
        # volumes (5, 9, 1): fraction 2/3 keeps points 1 then 0
        ds = dataset_from_dense(
            [[5.0, 0.0], [4.0, 5.0], [1.0, 0.0]], [{0}] * 3, 1
        )
        assert list(selected_points(ds.features, 2 / 3)) == [1, 0]
        rs = build_repr_x(ds, doc_fraction=2 / 3)
        # coordinate 0 reads point 1's row, coordinate 1 reads point 0's
        assert rs.repr_vec(0) == vec(2, {0: 4.0, 1: 5.0})
        assert rs.repr_vec(1) == vec(2, {0: 5.0})

    def test_volume_tie_breaks_by_index(self):
        ds = dataset_from_dense([[2.0], [2.0], [3.0]], [{0}] * 3, 1)
        assert list(selected_points(ds.features, 2 / 3)) == [2, 0]

    def test_subsample_monotonicity(self, rng):
        n = 40
        feats = rng.random((n, 5)) * (rng.random((n, 5)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * n, 1)
        previous: set[int] = set()
        for fraction in (0.1, 0.3, 0.55, 0.8, 1.0):
            current = set(selected_points(ds.features, fraction).tolist())
            assert previous <= current
            previous = current

    def test_empty_dataset_errors(self):
        ds = parse_xc("0 3 1\n")
        with pytest.raises(ValueError):
            build_repr_x(ds, 1.0)

    def test_bad_fraction(self, toy_dataset):
        with pytest.raises(ValueError):
            build_repr_x(toy_dataset, 0.0)


class TestBuildReprXY:
    def test_single_point(self):
        # x = {j: 2}, labels {0, 3}
        ds = dataset_from_dense([[0.0, 2.0]], [{0, 3}], 4)
        rs = build_repr_xy(ds, 1.0, 1.0)
        assert rs.ambient_dim == 4
        assert rs.repr_vec(1) == vec(4, {0: 2.0, 3: 2.0})

    def test_feature_never_active(self):
        ds = dataset_from_dense([[0.0, 2.0]], [{0}], 2)
        rs = build_repr_xy(ds, 1.0, 1.0)
        assert rs.repr_vec(0).nnz == 0

    def test_two_point_sum_oracle(self):
        # direct summation: q^j = 1*e0 + 3*(e0 + e1) = {0: 4, 1: 3}
        ds = dataset_from_dense([[1.0], [3.0]], [{0}, {0, 1}], 2)
        rs = build_repr_xy(ds, 1.0, 1.0)
        assert rs.repr_vec(0) == vec(2, {0: 4.0, 1: 3.0})

    def test_dense_oracle_random(self, rng):
        n, d, L = 12, 6, 5
        feats = rng.random((n, d)) * (rng.random((n, d)) > 0.4)
        labels = [set(np.flatnonzero(rng.random(L) > 0.5).tolist()) for _ in range(n)]
        ds = dataset_from_dense(feats, labels, L)
        rs = build_repr_xy(ds, 1.0, 1.0)
        Y = ds.labels.to_dense()
        expected = feats.T @ Y
        assert np.allclose(rs.matrix.to_dense(), expected)

    def test_all_ones_labels_gives_column_sums(self, rng):
        n, d, L = 9, 4, 3
        feats = rng.random((n, d))
        ds = dataset_from_dense(feats, [set(range(L))] * n, L)
        rs = build_repr_xy(ds, 1.0, 1.0)
        col_sums = feats.sum(axis=0)
        for j in range(d):
            assert np.allclose(rs.repr_vec(j).to_dense(), col_sums[j])

    def test_label_subsample_keeps_popular(self):
        # label 2 appears twice, labels 0 and 1 once each; keep half of 4
        ds = dataset_from_dense(
            [[1.0], [1.0], [1.0]], [{2}, {0, 2}, {1}], 4
        )
        rs = build_repr_xy(ds, 1.0, 0.5)
        assert rs.ambient_dim == 2
        # retained labels {2, 0} -> coordinates in ascending id order (0, 2)
        assert rs.repr_vec(0) == vec(2, {0: 1.0, 1: 2.0})


    @pytest.mark.parametrize("doc_fraction, label_fraction",
                             [(1.0, 1.0), (0.5, 1.0), (1.0, 0.6), (0.4, 0.3)])
    def test_bitwise_equal_to_per_feature_sums(self, rng, doc_fraction,
                                               label_fraction):
        n, d, L = 40, 9, 6
        feats = rng.random((n, d)) * (rng.random((n, d)) > 0.4)
        feats[:, 4] = 0.0  # a feature no point has
        labels = [set(np.flatnonzero(rng.random(L) > 0.4).tolist()) for _ in range(n)]
        ds = dataset_from_dense(feats, labels, L)
        got = build_repr_xy(ds, doc_fraction, label_fraction).matrix
        want = per_feature_repr_xy(ds, doc_fraction, label_fraction)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices),
                     (got.values, want.values)]:
            assert a.tobytes() == b.tobytes()


class TestNormalize:
    def test_three_four_five(self):
        rs = build_repr_x(dataset_from_dense([[3.0], [4.0]], [set()] * 2, 1), 1.0)
        out = normalize(rs)
        assert out.normalized
        assert np.allclose(out.repr_vec(0).values, [0.6, 0.8])

    def test_zero_vector_fixed_point(self):
        ds = dataset_from_dense([[0.0, 1.0]], [set()], 1)
        out = normalize(build_repr_x(ds, 1.0))
        assert out.repr_vec(0).nnz == 0

    def test_idempotent_on_unit_vector(self):
        ds = dataset_from_dense([[0.6], [0.8]], [set()] * 2, 1)
        once = normalize(build_repr_x(ds, 1.0))
        twice = normalize(once)
        assert np.array_equal(once.matrix.values, twice.matrix.values)

    def test_unit_norms(self, rng):
        feats = rng.random((10, 7)) * (rng.random((10, 7)) > 0.5)
        ds = dataset_from_dense(feats, [set()] * 10, 1)
        out = normalize(build_repr_x(ds, 1.0))
        for j in range(7):
            v = out.repr_vec(j)
            if v.nnz:
                assert abs(np.dot(v.values, v.values) - 1.0) < 1e-12
