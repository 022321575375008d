from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from featagg import bounds, reprs, synth, tree
from featagg.cooc import PseudoCooc, build_cooc
from featagg.linear import OvaConfig, OvaModel
from featagg.sparse import SparseMatrix, SparseVec, dot, norm
from featagg.splits import Ranking, SplitResult
from featagg.xcmetrics import Prediction, Predictions, propensities

from helpers import vec


sparse_vecs = st.integers(1, 30).flatmap(
    lambda dim: st.dictionaries(
        st.integers(0, dim - 1),
        st.floats(-100, 100, allow_nan=False).filter(lambda v: v != 0.0),
        max_size=dim,
    ).map(lambda pairs: SparseVec.from_pairs(dim, pairs))
)


class TestSparseVec:
    def test_strips_explicit_zeros(self):
        v = SparseVec(5, [0, 2, 4], [1.0, 0.0, 3.0])
        assert v.nnz == 2
        assert list(v.indices) == [0, 4]

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVec(5, [2, 0], [1.0, 1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseVec(5, [2, 2], [1.0, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVec(3, [3], [1.0])

    @given(sparse_vecs)
    def test_dense_round_trip(self, v):
        again = SparseVec.from_dense(v.to_dense())
        assert again == v

    @given(sparse_vecs)
    def test_nnz_never_counts_zeros(self, v):
        assert np.all(v.values != 0.0)
        assert v.nnz == len(v.values) <= v.dim


class TestDot:
    def test_single_overlap(self):
        assert dot(vec(6, {0: 1, 2: 2}), vec(6, {2: 3, 5: 1})) == 6

    def test_empty_operand(self):
        assert dot(SparseVec(4), vec(4, {1: 4})) == 0

    def test_symmetry_example(self):
        a = vec(2, {0: 1, 1: 1})
        assert dot(a, a) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot(SparseVec(3), SparseVec(4))

    @given(st.tuples(sparse_vecs, sparse_vecs))
    def test_commutative(self, pair):
        a, b = pair
        if a.dim != b.dim:
            b = SparseVec(a.dim, b.indices[b.indices < a.dim],
                          b.values[b.indices < a.dim])
        assert dot(a, b) == pytest.approx(dot(b, a), rel=1e-15)


class TestNorm:
    def test_l1(self):
        assert norm(vec(5, {0: 3, 4: -4}), 1) == 7

    def test_l2_triangle(self):
        assert norm(vec(5, {0: 3, 4: 4}), 2) == 5

    def test_empty(self):
        assert norm(SparseVec(5), 1) == 0

    def test_bad_p(self):
        with pytest.raises(ValueError):
            norm(SparseVec(5), 3)

    @given(st.lists(sparse_vecs, min_size=1, max_size=5))
    def test_l2_is_the_row_norm_bit_for_bit(self, vs):
        # norm(v, 2) squares and sums in stored order, as the matrix row
        # norms do, whatever rows sit beside v
        vs = [SparseVec(vs[0].dim, v.indices[v.indices < vs[0].dim],
                        v.values[v.indices < vs[0].dim]) for v in vs]
        rows = np.sqrt(SparseMatrix.from_rows(vs).row_sq_norms())
        assert np.array([norm(v, 2) for v in vs]).tobytes() == rows.tobytes()

    def test_l2_long_vector_bit_for_bit(self, rng):
        v = SparseVec(300, np.arange(300), rng.normal(size=300) * 1e3)
        assert norm(v, 2) == float(np.sqrt(SparseMatrix.from_rows([v]).row_sq_norms()[0]))
        assert norm(v, 2) == float(np.sqrt(np.cumsum(v.values * v.values)[-1]))


class TestSparseMatrix:
    def test_from_rows_shape(self):
        m = SparseMatrix.from_rows([vec(3, {0: 1}), vec(3, {2: 5})])
        assert (m.rows, m.cols, m.nnz) == (2, 3, 2)
        assert m.row(1) == vec(3, {2: 5})

    def test_row_dim_mismatch(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_rows([vec(3, {0: 1}), vec(4, {0: 1})])

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [0], [0.0])

    def test_rejects_unsorted_row(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 4, [0, 2], [2, 0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, bad])
        with pytest.raises(ValueError, match="values must be finite"):
            SparseVec(3, [0, 2], [bad, 1.0])
        assert SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, bad], validate=False).nnz == 2

    @pytest.mark.parametrize("indices, message", [
        ([3], "column index out of range"),
        ([-1], "column index out of range"),
        ([2, 0], "row indices must be strictly increasing"),
        ([1, 1], "row indices must be strictly increasing"),
    ])
    def test_vector_checks_are_one_row_matrix_checks(self, indices, message):
        values = [1.0] * len(indices)
        with pytest.raises(ValueError, match=message):
            SparseVec(3, indices, values)
        with pytest.raises(ValueError, match=message):
            SparseMatrix(1, 3, [0, len(indices)], indices, values)

    def test_row_sq_norms(self, rng):
        dense = rng.normal(size=(9, 6)) * (rng.random((9, 6)) > 0.5)
        dense[[0, 4]] = 0.0
        m = SparseMatrix.from_rows([SparseVec.from_dense(r) for r in dense], 6)
        sq = m.row_sq_norms()
        assert sq.shape == (9,) and sq.dtype == np.float64 and sq[0] == sq[4] == 0.0
        assert SparseMatrix(2, 3, [0, 0, 0], [], []).row_sq_norms().dtype == np.float64
        assert np.allclose(sq, (dense * dense).sum(axis=1), rtol=1e-15, atol=0.0)

    def test_transpose_round_trip(self, rng):
        dense = rng.random((7, 5)) * (rng.random((7, 5)) > 0.5)
        m = SparseMatrix.from_rows([SparseVec.from_dense(r) for r in dense], 5)
        t = m.transpose()
        assert np.allclose(t.to_dense(), dense.T)
        assert t.transpose() == m

    def test_take_rows(self):
        m = SparseMatrix.from_rows([vec(2, {0: 1}), vec(2, {1: 2}), vec(2, {0: 3})])
        sub = m.take_rows(np.array([2, 0]))
        assert sub.row(0) == vec(2, {0: 3})
        assert sub.row(1) == vec(2, {0: 1})


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
    "Prediction": (lambda: Prediction([3, 1], [0.5, 0.25]),
                   lambda p: Prediction([3, 1], [0.5, 0.125])),
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
