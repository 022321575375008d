"""The ranked-rows ``Predictions`` type against the per-row reference code.

``tests/xcmetrics_reference.py`` holds the per-row metrics, top-k, prototypes
and reranking that the segment-wise versions replaced. Randomized cases cover
ragged and empty rows, empty truth rows, score ties at the top-k boundary and
shortlists shorter than k, with the chunk constants also patched small so
that every chunk boundary is crossed. Predictions files are .npz archives
whose arrays come back bit for bit; ``tests/test_cli.py`` runs the malformed
ones through eval and rerank.
"""

import io
import tracemalloc

import numpy as np
import pytest

import xcmetrics_reference as ref
from featagg import dataio, kernels, reranking, xcmetrics
from featagg.cli import main
from featagg.cooc import build_cooc
from featagg.dataio import Dataset, save_xc
from featagg.linear import OvaConfig, OvaModel, predict, save_model
from featagg.reranking import build_prototypes, rerank_predictions
from featagg.sparse import SparseMatrix
from featagg.tree import FeaturePartition
from featagg.xcmetrics import (
    Prediction,
    Predictions,
    load_predictions,
    propensities,
    save_predictions,
    top_k,
)

CASES = 60


def random_rows(rng, n, n_labels, k_min=0, ties=False):
    """n ranked rows of k_min..n_labels unique labels; ties draws scores
    from a few values so that equal scores are common."""
    rows = []
    for _ in range(n):
        m = int(rng.integers(k_min, n_labels + 1))
        labels = rng.permutation(n_labels)[:m]
        if ties:
            scores = rng.integers(0, 3, size=m).astype(np.float64) / 2.0
        else:
            scores = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4, size=m)
        rows.append(Prediction(labels, -np.sort(-scores)))
    return rows


def random_matrix(rng, n, cols, density, empty_rows=True):
    dense = rng.random((n, cols)) * (rng.random((n, cols)) < density)
    if empty_rows and n:
        dense[rng.random(n) < 0.2] = 0.0
    row_of, col = np.nonzero(dense)
    counts = np.bincount(row_of, minlength=n)
    return SparseMatrix(n, cols, np.concatenate(([0], np.cumsum(counts))), col,
                        dense[row_of, col])


def truth_matrix(rng, n, n_labels):
    y = random_matrix(rng, n, n_labels, density=rng.uniform(0.05, 0.5))
    return SparseMatrix(n, n_labels, y.indptr, y.indices, np.ones(y.nnz))


def as_arrays(rows):
    labels = [np.asarray(r.labels) for r in rows]
    scores = [np.asarray(r.scores) for r in rows]
    return (np.concatenate(labels) if labels else np.empty(0, np.int64),
            np.concatenate(scores) if scores else np.empty(0))


def assert_same_rows(new, old, exact_scores=True):
    assert len(new) == len(old)
    assert np.array_equal(new.lengths(), [len(r.labels) for r in old])
    labels, scores = as_arrays(old)
    assert np.array_equal(new.labels, labels)
    if exact_scores:
        assert np.array_equal(new.scores, scores)
    else:
        assert np.allclose(new.scores, scores, rtol=0.0, atol=1e-12)


@pytest.fixture(params=["default", "small"])
def chunks(request, monkeypatch):
    """Run with the chunk constants as shipped and patched small."""
    if request.param == "small":
        monkeypatch.setattr(xcmetrics, "_TOPK_CHUNK_SCORES", 7)
        monkeypatch.setattr(kernels, "_COOC_CHUNK_NNZ", 5)
        monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", 4)
    return request.param


class TestPredictionsType:
    def test_rows_round_trip(self, rng):
        rows = random_rows(rng, 9, 6)
        preds = Predictions.from_rows(rows)
        assert len(preds) == 9
        assert Predictions.from_rows(preds) is preds
        for i, (got, want) in enumerate(zip(preds, rows)):
            assert isinstance(got, Prediction)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(preds[i].scores, want.scores)
        assert np.array_equal(preds[-1].labels, rows[-1].labels)
        with pytest.raises(IndexError):
            preds[9]

    def test_empty(self):
        preds = Predictions.from_rows([])
        assert len(preds) == 0 and list(preds) == []

    @pytest.mark.parametrize("labels, scores, message", [
        ([1, 1], [2.0, 1.0], "unique"),
        ([0, 1], [1.0, 2.0], "non-increasing"),
        ([0, 1], [np.nan, 1.0], "finite"),
        ([0, 1], [np.inf, 1.0], "finite"),
    ])
    def test_rejects_malformed_rows(self, labels, scores, message):
        with pytest.raises(ValueError, match=message):
            Prediction(labels, scores)
        indptr = [0, 1, 1, 3]
        with pytest.raises(ValueError, match=f"prediction 2: .*{message}"):
            Predictions(indptr, [5] + labels, [9.0] + scores)

    def test_rows_are_checked_separately(self):
        # a label may repeat across rows, and a row may start above the last
        preds = Predictions([0, 2, 4], [3, 1, 3, 1], [0.5, 0.25, 0.75, 0.5])
        assert len(preds) == 2

    @pytest.mark.parametrize("indptr", [[1, 2], [0, 3], [0, 2, 1, 2], []])
    def test_rejects_bad_indptr(self, indptr):
        with pytest.raises(ValueError, match="bad indptr"):
            Predictions(indptr, [0, 1], [1.0, 0.5])

    def test_check_labels_names_the_row(self):
        preds = Predictions([0, 1, 1, 3], [2, 0, 5], [1.0, 1.0, 0.5])
        preds.check_labels(6)
        with pytest.raises(ValueError, match=r"prediction 2 has a label outside \[0, 5\)"):
            preds.check_labels(5)

    def test_head(self, rng):
        rows = random_rows(rng, 12, 7)
        preds = Predictions.from_rows(rows).head(3)
        assert_same_rows(preds, [Prediction(r.labels[:3], r.scores[:3]) for r in rows])


class TestMetricsMatchReference:
    def test_full_rows(self, rng):
        for case in range(CASES):
            n, n_labels = int(rng.integers(0, 12)), int(rng.integers(1, 9))
            k = int(rng.integers(1, n_labels + 1))
            rows = random_rows(rng, n, n_labels, k_min=k, ties=case % 2 == 0)
            truth = truth_matrix(rng, n, n_labels)
            y_train = truth_matrix(rng, 5 + n, n_labels)
            prop = propensities(y_train)
            preds = Predictions.from_rows(rows)
            for metric in ("precision_at_k", "ndcg_at_k", "coverage_at_k"):
                want = getattr(ref, metric)(rows, truth, k)
                assert getattr(xcmetrics, metric)(preds, truth, k) == \
                    pytest.approx(want, abs=1e-12)
                assert getattr(xcmetrics, metric)(rows, truth, k) == \
                    pytest.approx(want, abs=1e-12)
            for metric in ("psp_at_k", "psndcg_at_k"):
                want = getattr(ref, metric)(rows, truth, prop, k)
                assert getattr(xcmetrics, metric)(preds, truth, prop, k) == \
                    pytest.approx(want, abs=1e-12)
            if n:
                buckets = [(0.0, 30.0), (30.0, 70.0), (70.0, 100.0)]
                want = ref.percentile_macro_precision(rows, truth, y_train, k, buckets)
                got = xcmetrics.percentile_macro_precision(preds, truth, y_train, k,
                                                           buckets)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12, equal_nan=True)

    def test_coverage_of_short_and_empty_rows(self, rng):
        for _ in range(CASES):
            n, n_labels = int(rng.integers(0, 12)), int(rng.integers(1, 9))
            rows = random_rows(rng, n, n_labels)
            truth = truth_matrix(rng, n, n_labels)
            for k in (1, 3, n_labels + 2):
                assert xcmetrics.coverage_at_k(rows, truth, k) == pytest.approx(
                    ref.coverage_at_k(rows, truth, k), abs=1e-12)

    def test_short_row_message(self):
        rows = [Prediction([0, 1], [2.0, 1.0]), Prediction([0], [1.0])]
        truth = SparseMatrix(2, 3, [0, 1, 1], [0], [1.0])
        with pytest.raises(ValueError, match="prediction 1 has only 1 entries, need 2"):
            xcmetrics.precision_at_k(rows, truth, 2)

    @pytest.mark.parametrize("label", [4, 9, -1])
    @pytest.mark.parametrize("metric", ["precision_at_k", "ndcg_at_k", "psp_at_k",
                                        "psndcg_at_k", "coverage_at_k"])
    def test_every_metric_rejects_out_of_range_labels(self, metric, label):
        preds = Predictions([0, 1, 2], [0, label], [1.0, 1.0])
        truth = SparseMatrix(2, 4, [0, 1, 2], [0, 1], [1.0, 1.0])
        args = (propensities(truth),) if metric.startswith("ps") else ()
        with pytest.raises(ValueError, match=r"prediction 1 has a label outside \[0, 4\)"):
            getattr(xcmetrics, metric)(preds, truth, *args, 1)


class TestTopKMatchesReference:
    def test_predict(self, rng, chunks):
        for case in range(CASES):
            n, dim, n_labels = (int(rng.integers(0, 15)), int(rng.integers(1, 6)),
                                int(rng.integers(1, 9)))
            # small integer weights and inputs make tied scores common
            model = OvaModel(
                weights=rng.integers(-2, 3, size=(n_labels, dim)).astype(np.float64),
                bias=rng.integers(-1, 2, size=n_labels).astype(np.float64),
                config=OvaConfig(),
            )
            x = random_matrix(rng, n, dim, density=0.5)
            x = SparseMatrix(n, dim, x.indptr, x.indices, np.ceil(x.values * 3))
            k = int(rng.integers(1, n_labels + 1))
            assert_same_rows(predict(model, x, k), ref.predict(model, x, k))
            if n:
                one = x.slice_rows(0, 1)
                assert_same_rows(predict(model, one, k), ref.predict(model, one, k))

    def test_cli_top_k(self, rng, chunks):
        for case in range(CASES):
            n, n_labels = int(rng.integers(0, 20)), int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=(n, n_labels)) / 3.0
            if case % 3 == 0:
                scores = rng.random((n, n_labels))
            k = int(rng.integers(1, n_labels + 1))
            got = top_k(lambda lo, hi: scores[lo:hi], n, n_labels, k)
            assert_same_rows(got, ref.cli_top_k(scores, k))

    def test_zero_scores_tie_by_label(self):
        scores = np.array([[0.0, -0.0, 0.0, -1.0]])
        got = top_k(lambda lo, hi: scores[lo:hi], 1, 4, 2)
        assert got[0].labels.tolist() == [0, 1]

    @pytest.mark.parametrize("k, message", [(0, "at least 1, got 0"),
                                            (-2, "at least 1, got -2"),
                                            (5, "exceeds the 4-label")])
    def test_rejects_bad_k(self, k, message):
        with pytest.raises(ValueError, match=message):
            top_k(lambda lo, hi: np.zeros((hi - lo, 4)), 3, 4, k)

    def test_rejects_non_finite_scores(self):
        scores = np.array([[0.5, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            top_k(lambda lo, hi: scores[lo:hi], 1, 2, 1)


def edge_predictions() -> Predictions:
    """Ranked rows with an empty row, a -0.0 score tied with 0.0, negative
    scores as log-combined reranking gives them, a subnormal and labels next
    to the int64 maximum."""
    top = np.iinfo(np.int64).max
    return Predictions([0, 3, 3, 5, 6], [top, 0, top - 1, 7, 2, top - 2],
                       [0.0, -0.0, -1e-300, -2.5, -700.25, 5e-324])


def round_trip(preds: Predictions, path, how: str) -> Predictions:
    """preds saved to path and read back: through the path itself, a binary
    handle, or a text handle opened as perfbench/workloads.py opens it."""
    if how == "path":
        save_predictions(preds, str(path))
        return load_predictions(str(path))
    kwargs = {"encoding": "utf-8"} if how == "text" else {}
    suffix = "" if how == "text" else "b"
    with open(path, "w" + suffix, **kwargs) as fh:
        save_predictions(preds, fh)
    with open(path, "r" + suffix, **kwargs) as fh:
        return load_predictions(fh)


def assert_bit_equal(got: Predictions, want: Predictions) -> None:
    for name in ("indptr", "labels", "scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestArchiveIO:
    @pytest.mark.parametrize("how", ["path", "binary", "text"])
    def test_round_trip_is_bit_equal(self, rng, tmp_path, how):
        for preds in (edge_predictions(), Predictions.from_rows([]),
                      Predictions.from_rows(random_rows(rng, 30, 9, ties=True))):
            assert_bit_equal(round_trip(preds, tmp_path / "preds.txt", how), preds)

    def test_text_stream_without_a_buffer_is_refused(self):
        with pytest.raises(TypeError, match="predictions files are binary"):
            save_predictions(edge_predictions(), io.StringIO())
        with pytest.raises(TypeError, match="predictions files are binary"):
            load_predictions(io.StringIO("3:0.5\n"))


def rerank_setup(rng, n_train, n_test, d, n_labels):
    train = Dataset(random_matrix(rng, n_train, d, 0.4),
                    truth_matrix(rng, n_train, n_labels))
    perm = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=min(d - 1, d // 3), replace=False))
    part = FeaturePartition.from_clusters(d, [np.sort(c) for c in np.split(perm, cuts)])
    return train, random_matrix(rng, n_test, d, 0.4), part


class TestRerankMatchesReference:
    def test_prototypes(self, rng, chunks):
        for case in range(CASES // 3):
            train, _, part = rerank_setup(rng, 12, 0, int(rng.integers(2, 12)),
                                          int(rng.integers(1, 6)))
            c = build_cooc(train, part, row_normalize=case % 2 == 1)
            for normalize in (True, False):
                got = build_prototypes(c, train, normalize=normalize).matrix
                want = ref.build_prototypes(c, train, normalize=normalize).matrix
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.allclose(got.values, want.values, rtol=0.0, atol=1e-12)

    def test_rerank(self, rng, chunks):
        for case in range(CASES // 2):
            n_labels = int(rng.integers(1, 8))
            train, x_test, part = rerank_setup(rng, 15, int(rng.integers(0, 10)),
                                               int(rng.integers(2, 10)), n_labels)
            ps = build_prototypes(build_cooc(train, part), train,
                                  normalize=case % 2 == 0, gamma=rng.uniform(0.5, 5.0))
            rows = random_rows(rng, x_test.rows, n_labels, ties=case % 3 == 0)
            if case % 4 == 0:  # non-positive base scores are dropped
                rows = [Prediction(r.labels, r.scores - 0.5) for r in rows]
            shortlist = int(rng.integers(1, n_labels + 2))
            alpha = float(rng.choice([0.0, 0.8, 1.0]))
            got = rerank_predictions(Predictions.from_rows(rows), ps, x_test,
                                     alpha=alpha, shortlist=shortlist)
            want = ref.rerank_predictions(rows, ps, x_test, alpha=alpha,
                                          shortlist=shortlist)
            assert_same_rows(got, want, exact_scores=False)
            assert_same_rows(rerank_predictions(rows, ps, x_test, alpha=alpha,
                                                shortlist=shortlist), want,
                             exact_scores=False)

    def test_rejects_out_of_range_label(self, rng):
        train, x_test, part = rerank_setup(rng, 10, 2, 6, 3)
        ps = build_prototypes(build_cooc(train, part), train)
        preds = Predictions([0, 1, 2], [0, 3], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"prediction 1 has a label outside \[0, 3\)"):
            rerank_predictions(preds, ps, x_test)


def peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_top_k_scratch_is_chunk_bounded(rng, tmp_path):
    """predict and featagg predict never hold the dense points x labels scores."""
    n, n_labels, dim = 4000, 330, 4
    assert n * n_labels >= 20 * xcmetrics._TOPK_CHUNK_SCORES
    dense_bytes = n * n_labels * 8
    model = OvaModel(weights=rng.normal(size=(n_labels, dim)),
                     bias=rng.normal(size=n_labels), config=OvaConfig())
    x = random_matrix(rng, n, dim, 0.5)
    assert peak_bytes(predict, model, x, 3) < dense_bytes / 4

    save_xc(Dataset(x, SparseMatrix(n, n_labels, np.zeros(n + 1), [], [])),
            str(tmp_path / "data.txt"))
    save_model(model, str(tmp_path / "model.npz"))
    argv = ["predict", str(tmp_path / "data.txt"), "--model", str(tmp_path / "model.npz"),
            "--k", "3", "-o", str(tmp_path / "preds.txt")]
    codes = []
    assert peak_bytes(lambda: codes.append(main(argv))) < dense_bytes / 4
    assert codes == [0]  # an early exit would pass the bound without the work


def test_rerank_scratch_is_chunk_bounded(rng, monkeypatch):
    """rerank_predictions takes x P^T a chunk of rows at a time, and computes
    the prototypes' squared norms once per call however many chunks it takes."""
    n, n_labels, dim, k = 4000, 100, 32, 5
    ps = reranking.PrototypeSet(random_matrix(rng, n_labels, dim, 0.9, empty_rows=False),
                                gamma=1.0, normalized=True)
    x = random_matrix(rng, n, dim, 0.25)
    # query entries times P^T row entries, plus shortlist entries
    pairs = np.diff(ps.matrix.transpose().indptr)[x.indices].sum() + n * k
    assert pairs >= 20 * kernels._PRODUCT_CHUNK_PAIRS
    labels = (np.arange(n)[:, None] + np.arange(k)).ravel() % n_labels
    preds = Predictions(np.arange(0, n * k + 1, k), labels,
                        np.tile(np.linspace(0.9, 0.5, k), n))
    sq_norms = reranking.PrototypeSet.sq_norms
    calls = []
    monkeypatch.setattr(reranking.PrototypeSet, "sq_norms",
                        lambda self: calls.append(1) or sq_norms(self))
    assert peak_bytes(rerank_predictions, preds, ps, x, shortlist=k) < pairs * 8 / 4
    assert len(calls) == 1


class _Sink:
    """A text stream that counts the characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_text_writers_scratch_is_chunk_bounded(rng):
    """write_xc holds one chunk's bytes at a time: its scratch does not grow
    with the number of rows, beyond one int64 per row that plans its chunks,
    and stays well below the text."""
    def dataset(n, k=10):
        feats = SparseMatrix(n, 1000, np.arange(0, n * k + 1, k),
                             np.tile(np.arange(k) * 7, n), rng.random(n * k))
        labels = SparseMatrix(n, 5, np.arange(0, 2 * n + 1, 2), np.tile([1, 3], n),
                              np.ones(2 * n))
        return Dataset(feats, labels)

    # at least 20 chunks of rows of 10 entries and 2 labels
    rows = 20 * dataio._WRITE_CHUNK_NNZ // 12
    peaks = []
    for n in (rows, 4 * rows):
        sink = _Sink()
        peaks.append(peak_bytes(dataio.write_xc, dataset(n), sink))
    assert peaks[1] < 1.2 * peaks[0] + 8 * 3 * rows
    assert peaks[1] < sink.chars / 3
