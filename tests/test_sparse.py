from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from featagg import bounds, reprs, synth, tree
from featagg.cooc import PseudoCooc, build_cooc
from featagg.linear import OvaConfig, OvaModel
from featagg.sparse import SparseMatrix
from featagg.splits import Ranking, SplitResult
from featagg.xcmetrics import Predictions, propensities

from helpers import matrix_from_dense, vec


sparse_vecs = st.integers(1, 30).flatmap(
    lambda dim: st.dictionaries(
        st.integers(0, dim - 1),
        st.floats(-100, 100, allow_nan=False).filter(lambda v: v != 0.0),
        max_size=dim,
    ).map(lambda pairs: vec(dim, pairs))
)


class TestSparseVec:
    """A sparse vector is a one-row SparseMatrix."""

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_rows(5, [[2, 0]], [[1.0, 1.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_rows(5, [[2, 2]], [[1.0, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_rows(3, [[3]], [[1.0]])

    @given(sparse_vecs)
    def test_dense_round_trip(self, v):
        again = matrix_from_dense(v.to_dense())
        assert again == v

    @given(sparse_vecs)
    def test_nnz_never_counts_zeros(self, v):
        assert np.all(v.values != 0.0)
        assert v.nnz == len(v.values) <= v.cols


class TestNorm:
    """The L2 norm of a row is the square root of its row_sq_norms entry."""

    def test_l2_triangle(self):
        assert np.sqrt(vec(5, {0: 3, 4: 4}).row_sq_norms()).tolist() == [5.0]

    def test_empty(self):
        assert vec(5, {}).row_sq_norms().tolist() == [0.0]

    @given(st.lists(sparse_vecs, min_size=1, max_size=5))
    def test_l2_is_the_row_norm_bit_for_bit(self, vs):
        # a row's squares are summed in stored order, whatever rows sit beside it
        dim = vs[0].cols
        keep = [v.indices < dim for v in vs]
        m = SparseMatrix.from_rows(dim, [v.indices[k] for v, k in zip(vs, keep)],
                                   [v.values[k] for v, k in zip(vs, keep)])
        alone = [m.slice_rows(i, i + 1).row_sq_norms() for i in range(m.rows)]
        assert np.concatenate(alone).tobytes() == m.row_sq_norms().tobytes()

    def test_l2_long_vector_bit_for_bit(self, rng):
        v = SparseMatrix.from_rows(300, [np.arange(300)], [rng.normal(size=300) * 1e3])
        assert v.row_sq_norms()[0] == np.cumsum(v.values * v.values)[-1]


class TestSparseMatrix:
    def test_from_rows_shape(self):
        m = SparseMatrix.from_rows(3, [[0], [2]], [[1.0], [5.0]])
        assert (m.rows, m.cols, m.nnz) == (2, 3, 2)
        assert m.slice_rows(1, 2) == vec(3, {2: 5})
        empty = SparseMatrix.from_rows(4, [], [])
        assert (empty.rows, empty.cols, empty.nnz) == (0, 4, 0)
        assert empty.indptr.tolist() == [0]

    def test_row_dim_mismatch(self):
        with pytest.raises(ValueError, match="column index out of range"):
            SparseMatrix.from_rows(3, [[0], [3]], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="one value per index in every row"):
            SparseMatrix.from_rows(3, [[0, 1], [2]], [[1.0], [1.0, 2.0]])

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [0], [0.0])
        with pytest.raises(ValueError, match="stored zeros"):
            SparseMatrix.from_rows(3, [[0, 2]], [[1.0, 0.0]])

    def test_rejects_unsorted_row(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 4, [0, 2], [2, 0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, bad])
        with pytest.raises(ValueError, match="values must be finite"):
            SparseMatrix.from_rows(3, [[0, 2]], [[bad, 1.0]])
        assert SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, bad], validate=False).nnz == 2

    def test_values_range_over_plus_minus_2_64(self):
        bound = 2.0 ** 64
        assert SparseMatrix(1, 2, [0, 2], [0, 1], [-bound, bound]).nnz == 2
        assert SparseMatrix.from_rows(2, [[0, 1]], [[bound, -bound]]).nnz == 2
        for bad in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf)):
            with pytest.raises(ValueError, match="values must be finite and within 2"):
                SparseMatrix(1, 2, [0, 1], [1], [bad])
            with pytest.raises(ValueError, match="values must be finite and within 2"):
                SparseMatrix.from_rows(2, [[1]], [[bad]])

    @pytest.mark.parametrize("indices, message", [
        ([3], "column index out of range"),
        ([-1], "column index out of range"),
        ([2, 0], "row indices must be strictly increasing"),
        ([1, 1], "row indices must be strictly increasing"),
    ])
    def test_vector_checks_are_one_row_matrix_checks(self, indices, message):
        values = [1.0] * len(indices)
        with pytest.raises(ValueError, match=message):
            SparseMatrix.from_rows(3, [indices], [values])
        with pytest.raises(ValueError, match=message):
            SparseMatrix(1, 3, [0, len(indices)], indices, values)

    def test_row_sq_norms(self, rng):
        dense = rng.normal(size=(9, 6)) * (rng.random((9, 6)) > 0.5)
        dense[[0, 4]] = 0.0
        m = matrix_from_dense(dense)
        sq = m.row_sq_norms()
        assert sq.shape == (9,) and sq.dtype == np.float64 and sq[0] == sq[4] == 0.0
        assert SparseMatrix(2, 3, [0, 0, 0], [], []).row_sq_norms().dtype == np.float64
        assert np.allclose(sq, (dense * dense).sum(axis=1), rtol=1e-15, atol=0.0)

    def test_transpose_round_trip(self, rng):
        dense = rng.random((7, 5)) * (rng.random((7, 5)) > 0.5)
        m = matrix_from_dense(dense)
        t = m.transpose()
        assert np.allclose(t.to_dense(), dense.T)
        assert t.transpose() == m

    def test_take_rows(self):
        m = matrix_from_dense([[1, 0], [0, 2], [3, 0]])
        sub = m.take_rows(np.array([2, 0]))
        assert sub.slice_rows(0, 1) == vec(2, {0: 3})
        assert sub.slice_rows(1, 2) == vec(2, {0: 1})


def grown_tree(seed=0):
    ds = synth.random_dataset(np.random.default_rng(3), 40, 32, n_labels=4)
    return tree.make_tree(reprs.build(ds), d0=4, seed=seed)


def built_cooc():
    ds = synth.random_dataset(np.random.default_rng(3), 40, 32, n_labels=4)
    return build_cooc(ds, tree.leaves(grown_tree()))


def bound_report():
    part = tree.FeaturePartition.from_clusters(4, [[0, 2], [1, 3]])
    z = np.arange(12.0).reshape(4, 3)
    return bounds.lemma1_check(z, part, np.array([1.0, -2.0, 0.5, 3.0]))


# (build, change): build() makes a fresh object; change(obj) returns it with
# one compared field changed
VALUE_EQ_CASES = {
    "FeaturePartition": (
        lambda: tree.FeaturePartition.from_clusters(5, [[0, 2], [1, 3, 4]], seed=1),
        lambda p: replace(p, members=p.members[::-1].copy()),
    ),
    "ClusterTree": (grown_tree, lambda t: replace(t, seed=1)),
    "TreeNode": (lambda: grown_tree().root, lambda n: replace(n, left=n.right)),
    "ClusterTree.root": (grown_tree, lambda t: replace(t, root=grown_tree(seed=5).root)),
    "SplitResult": (
        lambda: SplitResult(np.array([0, 3]), np.array([1, 2]), 2, True, (2.0, 1.0)),
        lambda r: replace(r, s_minus=np.array([2, 1])),
    ),
    "Ranking": (lambda: Ranking(np.array([2, 0, 1])),
                lambda r: Ranking(np.array([2, 1, 0]))),
    "OvaModel": (
        lambda: OvaModel(np.ones((2, 3)), np.zeros(2), OvaConfig()),
        lambda m: replace(m, bias=np.array([0.0, 1.0])),
    ),
    "PropensityModel": (
        lambda: propensities(SparseMatrix(2, 3, [0, 2, 3], [0, 2, 2], [1.0] * 3)),
        lambda m: replace(m, p=m.p * 0.5),
    ),
    "BoundReport": (bound_report, lambda r: replace(r, witnesses=r.witnesses + 1.0)),
    "SparseMatrix": (lambda: SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, 4.0]),
                     lambda m: SparseMatrix(2, 3, [0, 1, 2], [1, 0], [1.0, 4.0])),
    "Predictions": (lambda: Predictions([0, 1], [2], [0.5]),
                    lambda p: Predictions([0, 1], [2], [0.25])),
    "PseudoCooc": (built_cooc,
                   lambda c: PseudoCooc(c.partition, c.flat, row_normalized=True)),
}


@pytest.mark.parametrize("name", sorted(VALUE_EQ_CASES))
def test_value_equality(name):
    """Array-holding types compare by value instead of raising, and ignore the
    fields declared compare=False."""
    build, change = VALUE_EQ_CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    changed = change(a)
    assert changed != a and not changed == b
    assert a != "something else"


def test_value_equality_skips_uncompared_fields():
    r = SplitResult(np.array([0, 3]), np.array([1, 2]), 2, True, (2.0, 1.0))
    assert replace(r, objective_trace=()) == r
    t = grown_tree()
    assert t.levels and replace(t, levels=()) == t
    rep = bound_report()
    assert replace(rep, per_cluster=[]) == rep
