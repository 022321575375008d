import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featagg import kernels, reranking
from featagg.cooc import build_cooc
from featagg.reranking import (
    PrototypeSet,
    _rank,
    build_prototypes,
    check_rerank_settings,
    rerank_predictions,
)
from featagg.sparse import SparseMatrix
from featagg.tree import FeaturePartition
from featagg.xcmetrics import Predictions

import rerank_reference
from helpers import (dataset_from_dense, dense_cooc_oracle, matrix_from_dense,
                     ranked_rows, vec)


@pytest.fixture
def small_setup(rng):
    feats = rng.random((6, 6)) * (rng.random((6, 6)) > 0.3)
    feats[0] = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    labels = [{0}, {1}, {0, 1}, {2}, {2}, {1}]
    ds = dataset_from_dense(feats, labels, 3)
    part = FeaturePartition.from_clusters(
        6, [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
    )
    return ds, part, build_cooc(ds, part)


class TestBuildPrototypes:
    def test_single_positive_point_is_imputation(self):
        ds = dataset_from_dense([[1.0, 2.0, 0.0]], [{0}], 1)
        part = FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])])
        c = build_cooc(ds, part)
        ps = build_prototypes(c, ds, normalize=False)
        assert prototype(ps, 0) == c.apply(ds.features)

    def test_label_without_positives_is_zero(self):
        ds = dataset_from_dense([[1.0, 0.0]], [{0}], 2)
        part = FeaturePartition.from_clusters(2, [np.array([0]), np.array([1])])
        ps = build_prototypes(build_cooc(ds, part), ds, normalize=False)
        assert prototype(ps, 1).nnz == 0

    def test_matches_dense_triple_product(self, small_setup):
        ds, part, c = small_setup
        ps = build_prototypes(c, ds, normalize=False)
        X = ds.features.to_dense()
        Y = ds.labels.to_dense()
        C = dense_cooc_oracle(X, part.clusters)
        oracle = C @ X.T @ Y  # columns are the prototypes
        for l in range(3):
            assert np.allclose(prototype(ps, l).to_dense()[0], oracle[:, l], atol=1e-9)

    def test_normalized_prototypes_are_unit(self, small_setup):
        ds, part, c = small_setup
        ps = build_prototypes(c, ds, normalize=True)
        sq = ps.sq_norms()
        assert sq[ps.matrix.row_nnz() > 0] == pytest.approx(1.0, rel=1e-12)

    def test_prototypes_whose_squares_underflow_reach_unit_norm(self):
        # label 1's prototype, |x|^2 x for x = (3e-100, 1e-100), has entries
        # near 1e-299 whose squares underflow to 0; label 0's is (5, 10)
        ds = dataset_from_dense([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3e-100, 1e-100]],
                                [{0}, {1}], 2)
        part = FeaturePartition.from_clusters(4, [np.array([0, 1]), np.array([2, 3])])
        c = build_cooc(ds, part)
        raw = build_prototypes(c, ds, normalize=False).matrix
        assert raw.row_sq_norms()[1] == 0.0
        ps = build_prototypes(c, ds)
        assert np.all(np.abs(ps.sq_norms() - 1.0) <= 1e-15), ps.sq_norms()
        # a prototype whose squared norm is at least 2**-1022 keeps its bytes
        assert ps.matrix.values[:2].tobytes() == \
            (raw.values[:2] / math.sqrt(125.0)).tobytes()

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_gamma(self, small_setup, gamma):
        ds, _, c = small_setup
        with pytest.raises(ValueError, match=f"gamma must be finite and positive, got {gamma}"):
            build_prototypes(c, ds, gamma=gamma)


def prototype(ps, l):
    """Label l's prototype, as a one-row matrix."""
    return ps.matrix.slice_rows(l, l + 1)


def raw_queries(ps):
    """ps with normalized=False, so that rerank_predictions takes queries as
    they are."""
    return PrototypeSet(ps.matrix, gamma=ps.gamma, normalized=False)


def affinities(x, ps, labels):
    """Affinities of the one-row query x to labels, in their order, as
    rerank_predictions computes them: at alpha = 0 its scores are their logs."""
    labels = np.asarray(labels, dtype=np.int64)
    preds = Predictions([0, labels.size], labels, np.ones(labels.size), validate=False)
    out = rerank_predictions(preds, ps, x, alpha=0.0, shortlist=max(labels.size, 1))
    score_of = dict(zip(out.labels.tolist(), out.scores.tolist()))
    return np.exp([score_of[l] for l in labels.tolist()])


class TestAffinity:
    """A query's affinities to its shortlisted prototypes, read from
    rerank_predictions with one query row."""

    def test_zero_distance_scores_one(self, small_setup):
        ds, part, c = small_setup
        ps = build_prototypes(c, ds, normalize=False)
        x = prototype(ps, 0)
        assert affinities(x, ps, [0])[0] == pytest.approx(1.0)

    def test_direct_substitution(self):
        # gamma = 2, squared distance 1 -> e^{-1}
        ds = dataset_from_dense([[1.0]], [{0}], 1)
        part = FeaturePartition.from_clusters(1, [np.array([0])])
        ps = build_prototypes(build_cooc(ds, part), ds, normalize=True, gamma=2.0)
        # prototype is ( 1 ); move the query 1 unit away in the same axis
        x = vec(1, {0: float(prototype(ps, 0).values[0] + 1.0)})
        assert affinities(x, raw_queries(ps), [0])[0] == pytest.approx(math.exp(-1.0),
                                                                       rel=1e-12)
        # a normalized query is the prototype itself
        assert affinities(x, ps, [0])[0] == 1.0

    def test_strictly_decreasing_in_distance(self, small_setup):
        ds, part, c = small_setup
        ps = raw_queries(build_prototypes(c, ds, normalize=True))
        base = prototype(ps, 0).to_dense()
        last = None
        for step in (0.0, 0.5, 1.0, 2.0):
            val = affinities(matrix_from_dense(base + step), ps, [0])[0]
            if last is not None:
                assert val < last
            last = val

    def test_batch_matches_scalar(self, small_setup, rng):
        ds, part, c = small_setup
        ps = build_prototypes(c, ds, normalize=True)
        x = matrix_from_dense(rng.random(6))
        batch = affinities(x, ps, [0, 1, 2])
        for l in range(3):
            assert batch[l] == pytest.approx(affinities(x, ps, [l])[0], rel=1e-12)

    def test_rejects_wrong_query_dimension(self, small_setup):
        ds, _, c = small_setup
        ps = build_prototypes(c, ds)
        with pytest.raises(ValueError, match="test dim 5 != prototype dim 6"):
            affinities(vec(5, {0: 1.0}), ps, [0])
        with pytest.raises(ValueError, match="test dim 7 != prototype dim 6"):
            affinities(vec(7, {0: 1.0}), ps, [0, 1])

    @pytest.mark.parametrize("label", [-1, 3])
    def test_rejects_label_outside_range(self, small_setup, label):
        ds, _, c = small_setup
        ps = build_prototypes(c, ds)
        x = vec(6, {0: 1.0})
        with pytest.raises(ValueError, match=r"has a label outside \[0, 3\)"):
            affinities(x, ps, [0, label])
        with pytest.raises(ValueError, match=r"has a label outside \[0, 3\)"):
            affinities(x, ps, [label])


def rank_row(labels, base_scores, affinities, alpha=0.8):
    """The labels and combined scores of _rank on one row."""
    return _rank(np.zeros(len(labels), np.int64), np.asarray(labels, np.int64),
                 np.asarray(base_scores, np.float64), np.asarray(affinities, np.float64),
                 alpha)[1:]


class TestRerank:
    def test_alpha_one_keeps_base_ranking(self):
        labels = np.array([4, 1, 7])
        base = np.array([0.9, 0.5, 0.1])
        out_labels, _ = rank_row(labels, base, np.array([0.01, 0.5, 0.99]), alpha=1.0)
        assert list(out_labels) == [4, 1, 7]

    def test_alpha_zero_keeps_affinity_ranking(self):
        labels = np.array([4, 1, 7])
        base = np.array([0.9, 0.5, 0.1])
        out_labels, _ = rank_row(labels, base, np.array([0.01, 0.5, 0.99]), alpha=0.0)
        assert list(out_labels) == [7, 1, 4]

    def test_affinity_breaks_base_tie(self):
        out_labels, _ = rank_row(
            np.array([0, 1]), np.array([0.5, 0.5]), np.array([0.9, 0.1]), alpha=0.8
        )
        assert list(out_labels) == [0, 1]

    def test_nonpositive_base_scores_excluded(self):
        out_labels, _ = rank_row(
            np.array([0, 1, 2]), np.array([0.5, 0.0, -1.0]),
            np.array([0.1, 0.9, 0.9]),
        )
        assert list(out_labels) == [0]

    def test_invariant_to_common_rescale(self, rng):
        labels = np.arange(6)
        base = rng.uniform(0.1, 1.0, size=6)
        aff = rng.uniform(0.1, 1.0, size=6)
        l1, _ = rank_row(labels, base, aff)
        l2, _ = rank_row(labels, base * 37.5, aff)
        assert np.array_equal(l1, l2)

    def test_rejects_alpha_outside_unit(self):
        for alpha in (1.5, -0.25):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                check_rerank_settings(alpha, 1)

    def test_tie_break_by_label_id(self):
        out_labels, _ = rank_row(
            np.array([5, 2]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
        )
        assert list(out_labels) == [2, 5]


def test_rerank_predictions_pipeline(small_setup):
    ds, part, c = small_setup
    ps = build_prototypes(c, ds, normalize=True)
    preds = ranked_rows([([0, 1, 2], [0.8, 0.7, 0.1])] * ds.n)
    out = rerank_predictions(preds, ps, ds.features, alpha=0.8, shortlist=3)
    assert len(out) == ds.n
    for pr in out:
        assert set(pr.labels.tolist()) <= {0, 1, 2}
        assert np.all(np.diff(pr.scores) <= 0)


@pytest.mark.parametrize("gather", [False, True])
def test_queries_whose_squares_underflow_rerank_as_unit_queries(monkeypatch, gather):
    """The squares of 1e-200 underflow to 0: normalized first by its largest
    magnitude, the query reranks bit for bit as (1, 1) does, and (1, 1)
    reranks as the per-row reference does."""
    ps = PrototypeSet(SparseMatrix(2, 2, [0, 2, 3], [0, 1, 0],
                                   [1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 1.0]),
                      gamma=1.0, normalized=True)
    x = SparseMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [1e-200, 1e-200, 1.0, 1.0])
    preds = Predictions([0, 2, 4], [1, 0, 1, 0], [0.6, 0.5, 0.6, 0.5])
    monkeypatch.setattr(reranking, "_gather_pays", lambda *a: gather)
    for alpha in (0.0, 0.8):
        out = rerank_predictions(preds, ps, x, alpha=alpha, shortlist=2)
        # the affinity ranks label 0 first, the base score label 1
        assert out[0].labels.tolist() == ([0, 1] if alpha == 0.0 else [1, 0])
        assert_same_predictions(out[0], out[1])
        assert_same_predictions(out[1], rerank_reference.rerank_predictions(
            preds[1], ps, x.slice_rows(1, 2), alpha=alpha, shortlist=2))


def shortlist_predictions(rng, n, n_labels):
    """Random ranked rows over n_labels, some base scores nonpositive."""
    rows = []
    for _ in range(n):
        labels = rng.permutation(n_labels)[:int(rng.integers(0, n_labels + 1))]
        scores = np.sort(rng.uniform(-0.2, 1.0, size=labels.shape[0]))[::-1]
        rows.append((labels, scores))
    return ranked_rows(rows)


@pytest.mark.parametrize("normalize", [True, False])
def test_per_point_rerank_is_a_matrix_row(small_setup, rng, normalize):
    """_rank of one point's shortlist and its affinities gives, bit for bit,
    that point's row of rerank_predictions."""
    ds, _, c = small_setup
    ps = build_prototypes(c, ds, normalize=normalize, gamma=2.5)
    preds = shortlist_predictions(rng, ds.n, 3)
    x_test = ds.features
    for alpha in (0.0, 0.8, 1.0):
        out = rerank_predictions(preds, ps, x_test, alpha=alpha, shortlist=3)
        for i in range(ds.n):
            pr = preds[i]
            aff = rerank_reference.affinity_scores(x_test.slice_rows(i, i + 1), ps,
                                                   pr.labels)
            labels, scores = rank_row(pr.labels, pr.scores, aff, alpha=alpha)
            assert labels.tobytes() == out[i].labels.tobytes()
            assert scores.tobytes() == out[i].scores.tobytes()


@pytest.mark.parametrize("normalize", [False, True])
def test_affinity_scores_are_the_matrix_affinities(rng, normalize):
    """With alpha = 0 the reranked scores are the logs of the reference's
    one-row affinity_scores, bit for bit, with queries normalized as the
    prototypes are. Rows are long enough for their squared norms to depend
    on the order of the sum."""
    d, n_labels = 48, 4
    feats = rng.random((30, d)) * (rng.random((30, d)) > 0.3)
    ds = dataset_from_dense(feats, [{i % n_labels} for i in range(30)], n_labels)
    part = FeaturePartition.from_clusters(d, np.split(rng.permutation(d), 6))
    ps = build_prototypes(build_cooc(ds, part), ds, normalize=normalize, gamma=0.5)
    x_test = matrix_from_dense(rng.normal(size=(20, d)) * (rng.random((20, d)) > 0.2))
    preds = Predictions(np.arange(0, 61, 3), np.tile([2, 0, 1], 20),
                        np.tile([0.9, 0.5, 0.2], 20))
    out = rerank_predictions(preds, ps, x_test, alpha=0.0, shortlist=3)
    for i in range(x_test.rows):
        aff = rerank_reference.affinity_scores(x_test.slice_rows(i, i + 1), ps,
                                               out[i].labels)
        assert np.log(np.maximum(aff, 1e-300)).tobytes() == out[i].scores.tobytes()


# ---------------------------------------------------------------------------
# the product and gather paths against the former product_chunks code
# ---------------------------------------------------------------------------


def dense_csr_matrix(dense) -> SparseMatrix:
    """CSR of a dense array's nonzeros."""
    row, col = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=dense.shape[0]))))
    return SparseMatrix(dense.shape[0], dense.shape[1], indptr.astype(np.int64),
                        col.astype(np.int64), dense[row, col])


@st.composite
def rerank_inputs(draw):
    """(preds, prototypes, queries, settings): negative values, empty query
    rows, empty prototypes, rows of the shortlist longer and shorter than the
    cut, and nonpositive base scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_labels, dim, n = draw(st.integers(1, 7)), draw(st.integers(1, 9)), draw(st.integers(0, 6))
    protos = rng.uniform(-2, 2, (n_labels, dim)) * (
        rng.random((n_labels, dim)) < draw(st.sampled_from([0.3, 0.8, 1.0])))
    protos[rng.random(n_labels) < 0.25] = 0.0
    queries = rng.uniform(-2, 2, (n, dim)) * (rng.random((n, dim)) < 0.6)
    queries[rng.random(n) < 0.25] = 0.0
    ps = PrototypeSet(dense_csr_matrix(protos), gamma=draw(st.sampled_from([0.5, 3.0])),
                      normalized=draw(st.booleans()))
    preds = shortlist_predictions(rng, n, n_labels) if n else Predictions([0], [], [])
    return preds, ps, dense_csr_matrix(queries), dict(
        alpha=draw(st.sampled_from([0.0, 0.8, 1.0])),
        shortlist=draw(st.integers(1, n_labels + 2)))


def assert_same_predictions(got: Predictions, want: Predictions) -> None:
    for a, b in ((got.indptr, want.indptr), (got.labels, want.labels),
                 (got.scores, want.scores)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(rerank_inputs(), st.booleans())
def test_both_paths_equal_the_former_code(case, gather):
    preds, ps, x, kwargs = case
    with mock.patch.object(reranking, "_gather_pays", lambda *a: gather):
        got = rerank_predictions(preds, ps, x, **kwargs)
        want = rerank_reference.rerank_predictions(preds, ps, x, **kwargs)
    assert_same_predictions(got, want)


def test_gather_path_is_taken_when_forced(small_setup, monkeypatch):
    ds, _, c = small_setup
    ps = build_prototypes(c, ds)
    preds = shortlist_predictions(np.random.default_rng(2), ds.n, 3)
    calls = []
    gather_dots = reranking._gather_dots
    monkeypatch.setattr(reranking, "_gather_dots", lambda *a: calls.append(1) or gather_dots(*a))
    monkeypatch.setattr(reranking, "_gather_pays", lambda *a: True)
    got = rerank_predictions(preds, ps, ds.features, shortlist=3)
    assert calls == [1]
    assert ps._transpose is None  # the gather path never builds P^T
    assert_same_predictions(got, rerank_reference.rerank_predictions(preds, ps, ds.features,
                                                                     shortlist=3))


@pytest.mark.parametrize("gather", [False, True])
def test_a_nan_affinity_is_a_value_error(rng, monkeypatch, gather):
    """A query value outside the validated range (+inf, through
    validate=False) makes an affinity NaN, on either path, and the ranking
    refuses it rather than rank it."""
    ps = PrototypeSet(dense_csr_matrix(rng.uniform(0.5, 1, (3, 4))), gamma=1.0,
                      normalized=False)
    queries = dense_csr_matrix(rng.uniform(0.5, 1, (2, 4)))
    queries.values[5] = np.inf
    preds = Predictions([0, 3, 6], np.tile(np.arange(3), 2), np.tile([0.9, 0.5, 0.1], 2))
    monkeypatch.setattr(reranking, "_gather_pays", lambda *a: gather)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="^combined scores must be finite$"):
        rerank_predictions(preds, ps, queries, shortlist=3)


def test_prototypes_are_transposed_once(rng, monkeypatch):
    """Repeated one-row calls on one PrototypeSet transpose P once, give the
    former code's rankings, and leave equality to the prototypes alone."""
    protos = rng.uniform(-1, 1, (6, 9)) * (rng.random((6, 9)) < 0.5)
    ps = PrototypeSet(dense_csr_matrix(protos), gamma=0.7, normalized=False)
    xs = [matrix_from_dense(rng.normal(size=9) * (rng.random(9) > 0.4))
          for _ in range(5)]
    preds = Predictions([0, 3], [5, 1, 3], [0.9, 0.5, 0.2])
    want = [rerank_reference.rerank_predictions(preds, ps, x, shortlist=3) for x in xs]
    calls = []
    transpose_csr = kernels.transpose_csr
    monkeypatch.setattr(kernels, "transpose_csr",
                        lambda *a: calls.append(1) or transpose_csr(*a))
    monkeypatch.setattr(reranking, "_gather_pays", lambda *a: False)
    got = [rerank_predictions(preds, ps, x, shortlist=3) for x in xs]
    assert len(calls) == 1
    for g, w in zip(got, want):
        assert_same_predictions(g, w)
    assert ps == PrototypeSet(dense_csr_matrix(protos), gamma=0.7, normalized=False)


def test_gather_pays_only_for_dense_cheaper_prototypes():
    queries = dense_csr_matrix(np.ones((10, 6)))
    one = Predictions(np.arange(11), np.zeros(10, np.int64), np.ones(10))
    four = Predictions(np.arange(0, 41, 4), np.tile(np.arange(4), 10),
                       np.tile([0.9, 0.8, 0.7, 0.6], 10))
    dense = PrototypeSet(dense_csr_matrix(np.ones((4, 6))), gamma=1.0, normalized=False)
    # one label per query: 60 gathered entries plus a 24-cell fill against
    # 240 expanded pairs; four labels: 264 against 240
    assert reranking._gather_pays(dense, queries, one)
    assert not reranking._gather_pays(dense, queries, four)
    # 11 of 24 cells stored: a dense P would outgrow its CSR transpose
    sparse = np.zeros((4, 6))
    sparse.flat[:11] = 1.0
    ps = PrototypeSet(dense_csr_matrix(sparse), gamma=1.0, normalized=False)
    assert not reranking._gather_pays(ps, queries, one)


def test_product_path_scratch_does_not_grow_with_labels(rng):
    """At fixed query and prototype nnz, a hundredfold label count adds at
    most a few label-sized vectors (squared norms, the transpose's pointers),
    never a table of query rows times labels."""
    n, dim = 200, 50
    queries = np.zeros((n, dim))
    queries[np.arange(n), rng.integers(0, dim, n)] = rng.uniform(0.5, 1.0, n)
    queries[np.arange(n), rng.integers(0, dim, n)] = rng.uniform(0.5, 1.0, n)
    x = dense_csr_matrix(queries)
    protos = rng.uniform(0.5, 1.0, (50, dim)) * (rng.random((50, dim)) < 0.1)
    shortlists = np.stack([rng.permutation(50)[:5] for _ in range(n)])
    preds = Predictions(np.arange(0, 5 * n + 1, 5), shortlists.reshape(-1),
                        np.tile([0.9, 0.8, 0.7, 0.6, 0.5], n))
    peaks = []
    for n_labels in (200, 20_000):
        p = np.zeros((n_labels, dim))
        p[:50] = protos
        ps = PrototypeSet(dense_csr_matrix(p), gamma=1.0, normalized=False)
        assert not reranking._gather_pays(ps, x, preds)
        tracemalloc.start()
        try:
            rerank_predictions(preds, ps, x, shortlist=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    print(peaks, peaks[1] - peaks[0], 8 * (20_000 - 200))
    # one rows x labels table for this chunk of 200 rows would add 32 MB
    assert peaks[1] <= peaks[0] + 4 * 8 * (20_000 - 200), peaks
