"""The ordering kernels change no output: top-k, reranking, parse checks and
the ranked-rows check against the np.lexsort code they replaced."""

import numpy as np
import pytest

from featagg import xcmetrics
from featagg.dataio import parse_xc
from featagg.errors import ParseError
from featagg.reranking import _LOG_FLOOR, _rank, rerank
from featagg.xcmetrics import Predictions, top_k


def lexsort_top_k(scores, k):
    """Each row's labels by decreasing score, ties by ascending label, cut to k."""
    order = np.lexsort((np.broadcast_to(np.arange(scores.shape[1]), scores.shape),
                        -scores), axis=1)[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def lexsort_rank(rows, labels, base_scores, affinities, alpha):
    """The former reranking._rank: one lexsort on (row, -combined, label)."""
    keep = base_scores > 0.0
    rows, labels = rows[keep], labels[keep]
    combined = alpha * np.log(base_scores[keep]) + (1.0 - alpha) * np.log(
        np.maximum(affinities[keep], _LOG_FLOOR))
    order = np.lexsort((labels, -combined, rows))
    return rows[order], labels[order], combined[order]


@pytest.mark.parametrize("k", [1, 3, 7, 12])
@pytest.mark.parametrize("chunk", [12, 1 << 15])
def test_top_k_ties_equal_lexsort(monkeypatch, k, chunk):
    monkeypatch.setattr(xcmetrics, "_TOPK_CHUNK_SCORES", chunk)
    rng = np.random.default_rng(4)
    # four distinct scores over 12 labels (two of them -0.0 and 0.0): every
    # row ties, and many ties straddle the k-th place
    scores = rng.choice([-0.0, 0.0, 0.5, 2.0], size=(40, 12))
    got = top_k(lambda lo, hi: scores[lo:hi], 40, 12, k)
    labels, values = lexsort_top_k(scores, k)
    assert got.labels.tobytes() == labels.ravel().tobytes()
    assert got.scores.tobytes() == values.ravel().tobytes()


def shortlist(rng, n_rows, per_row, n_labels):
    rows = np.repeat(np.arange(n_rows), per_row)
    labels = np.concatenate([rng.permutation(n_labels)[:per_row] for _ in range(n_rows)])
    return rows, labels


@pytest.mark.parametrize("alpha, base, aff", [
    # alpha 1: equal base scores tie every row whatever the affinities
    (1.0, lambda r, n: np.full(n, 0.25), lambda r, n: r.random(n)),
    # alpha 0: affinities below the floor all tie at log(_LOG_FLOOR)
    (0.0, lambda r, n: r.random(n) + 0.1,
     lambda r, n: r.choice([0.0, 1e-320, _LOG_FLOOR, 0.5], size=n)),
    # some tied combined scores, some nonpositive base scores dropped
    (0.5, lambda r, n: r.choice([-1.0, 0.0, 0.5, 1.0], size=n),
     lambda r, n: r.choice([0.0, 0.5, 1.0], size=n)),
])
def test_rank_ties_equal_lexsort(alpha, base, aff):
    rng = np.random.default_rng(7)
    rows, labels = shortlist(rng, 30, 9, 50)
    base_scores, affinities = base(rng, rows.shape[0]), aff(rng, rows.shape[0])
    got = _rank(rows, labels, base_scores, affinities, alpha)
    want = lexsort_rank(rows, labels, base_scores, affinities, alpha)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_rerank_nan_scores_rank_last_by_label():
    # alpha 0 with infinite base scores gives 0 * inf = NaN combined scores
    labels = np.array([9, 4, 7, 2, 5])
    base = np.array([np.inf, 1.0, np.inf, 1.0, np.inf])
    aff = np.array([0.5, 0.5, 0.5, 0.9, 0.5])
    with np.errstate(invalid="ignore"):
        got = rerank(labels, base, aff, alpha=0.0)
        want = lexsort_rank(np.zeros(5, np.int64), labels, base, aff, 0.0)[1:]
    assert got[0].tolist() == want[0].tolist() == [2, 4, 5, 7, 9]
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("later", ["9", "9000000000000000000", "-9000000000000000000"])
def test_parse_repeated_index_before_out_of_range_names_its_line(later):
    # the later index's range fault (huge ones overflow the composite sort
    # key) does not hide the earlier line's repeat
    text = f"3 5 2\n0 1:1 1:2\n1 {later}:1\n0 2:1\n"
    with pytest.raises(ParseError, match="^line 2: duplicate feature index$") as err:
        parse_xc(text)
    assert err.value.line == 2


def test_parse_out_of_range_before_repeated_index_names_its_line():
    text = "3 5 2\n0 2:1\n1 3:1 9000000000000000000:1\n0 1:1 1:2\n"
    with pytest.raises(ParseError, match=r"^line 3: feature index 9000000000000000000 "
                                         r"out of range \[0, 5\)$"):
        parse_xc(text)


@pytest.mark.parametrize("later", ["7", "9000000000000000000"])
def test_parse_repeated_label_before_out_of_range_names_its_line(later):
    with pytest.raises(ParseError, match="^line 2: duplicate label index$"):
        parse_xc(f"3 5 2\n0,0 1:1\n{later} 2:1\n1 2:1\n")


def test_parse_sorts_each_row_by_index():
    ds = parse_xc("3 5 2\n1 4:1 0:2\n0,1 3:1 2:1 1:1\n\n")
    assert ds.features.indices.tolist() == [0, 4, 1, 2, 3]
    assert ds.features.values.tolist() == [2.0, 1.0, 1.0, 1.0, 1.0]
    assert ds.labels.indices.tolist() == [1, 0, 1]


@pytest.mark.parametrize("indptr, labels, row", [
    # labels above 2**53 differ by one: no float key may merge them
    ([0, 2], [9007199254740993, 9007199254740992], None),
    ([0, 2], [9007199254740993, 9007199254740993], 0),
    # labels spanning int64 overflow the composite key: the lexsort fallback
    ([0, 2, 4], [-2**63, 2**63 - 1, 5, 5], 1),
    ([0, 2, 4, 6], [1, 2, 3, 3, 2**63 - 1, -2**63], 1),
    ([0, 2, 4], [1, 2, -2**63, -2**63], 1),
    # one row whose labels span 2**63: the composite key fits, its span not
    ([0, 3], [-2**63, -1, -1], 0),
], ids=["distinct-above-2to53", "repeat-above-2to53", "span-then-repeat",
        "repeat-then-span", "repeat-at-int64-min", "repeat-spanning-2to63"])
def test_repeated_labels_above_float_precision_name_their_row(indptr, labels, row):
    scores = -np.arange(len(labels), dtype=np.float64)
    if row is None:
        assert Predictions(indptr, labels, scores).labels.tolist() == labels
        return
    with pytest.raises(ValueError, match=f"^prediction {row}: label ids must be unique$"):
        Predictions(indptr, labels, scores)
