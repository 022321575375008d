"""Classification evaluation over ranked label predictions.

Precision@k and gain@k with binary relevance, propensity-scored variants that
up-weight rare-label hits, coverage@k, and macro precision by train-popularity
percentile bucket. All metrics live in [0, 1] and average over test points
(or labels, for the macro variants).

Ranked predictions are one ``Predictions`` value: CSR-like rows of label ids
and scores; one point's ranking is a one-row ``Predictions``. Top-k and the
metrics work on its arrays segment by segment, with no Python loop over rows;
a hit is a (row, label) key of the top k that is also a key of the truth
matrix. A predictions file is an .npz archive of the three arrays, written and
read by dataio.save_arrays and load_arrays as partitions, models and
co-occurrence blocks are.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dataio, kernels
from .sparse import SparseMatrix, _value_eq

# Per-entry scratch stays bounded whatever the number of rows: top_k ranks
# rows of at most this many scores at a time (at least one row).
_TOPK_CHUNK_SCORES = 1 << 15


def _row_faults(
    indptr: np.ndarray, labels: np.ndarray, scores: np.ndarray
) -> list[tuple[np.ndarray, str]]:
    """Rows breaking each rule of ranked rows, with the rule's message."""
    row = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    same = row[1:] == row[:-1]
    return [
        (row[~np.isfinite(scores)], "scores must be finite"),
        (kernels.group_repeats(row, labels), "label ids must be unique"),
        (row[1:][same & (scores[1:] > scores[:-1])],
         "scores must be non-increasing"),
    ]


class Predictions:
    """Ranked labels of n points in CSR layout.

    Row i holds labels[indptr[i]:indptr[i+1]] with their scores, best first:
    unique label ids with finite, non-increasing scores. Rows are ragged (a
    row may be empty). len(), indexing and iteration give each row as a
    one-row Predictions that shares this one's label and score arrays.
    """

    __slots__ = ("indptr", "labels", "scores")
    __eq__ = _value_eq

    def __init__(self, indptr, labels, scores, *, validate: bool = True):
        self.indptr = indptr = np.asarray(indptr, dtype=np.int64)
        self.labels = labels = np.asarray(labels, dtype=np.int64)
        self.scores = scores = np.asarray(scores, dtype=np.float64)
        if not validate:
            return
        if labels.ndim != 1 or labels.shape != scores.shape:
            raise ValueError("labels and scores must have equal length")
        if (indptr.ndim != 1 or indptr.shape[0] < 1 or indptr[0] != 0
                or indptr[-1] != labels.shape[0] or np.any(np.diff(indptr) < 0)):
            raise ValueError("bad indptr")
        faults = [(int(rows[0]), what) for rows, what in
                  _row_faults(indptr, labels, scores) if rows.size]
        if faults:
            row, what = min(faults)
            raise ValueError(f"prediction {row}: {what}")

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, i) -> "Predictions":
        i = range(len(self))[operator.index(i)]
        s, e = self.indptr[i], self.indptr[i + 1]
        return Predictions([0, e - s], self.labels[s:e], self.scores[s:e], validate=False)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def ranks(self) -> np.ndarray:
        """The 0-based position of every entry within its row."""
        return np.arange(self.labels.shape[0]) - np.repeat(
            self.indptr[:-1], self.lengths()
        )

    def check_labels(self, n_labels: int) -> None:
        """Raise ValueError unless every label lies in [0, n_labels)."""
        bad = (self.labels < 0) | (self.labels >= n_labels)
        if bad.any():
            row = int(np.searchsorted(self.indptr, np.argmax(bad), "right")) - 1
            raise ValueError(
                f"prediction {row} has a label outside [0, {n_labels})"
            )

    def head(self, k: int) -> "Predictions":
        """The first k entries of every row (all of a shorter row)."""
        if not np.any(self.lengths() > k):
            return self
        keep = self.ranks() < k
        counts = np.minimum(self.lengths(), k)
        return Predictions(np.concatenate(([0], np.cumsum(counts))),
                           self.labels[keep], self.scores[keep], validate=False)


def top_k(
    score_rows: Callable[[int, int], np.ndarray], n_rows: int, n_labels: int, k: int
) -> Predictions:
    """The k best labels of every row of an n_rows x n_labels score matrix.

    score_rows(lo, hi) returns rows lo..hi-1 as a dense array; it is called
    on consecutive ranges of at most _TOPK_CHUNK_SCORES scores (at least one
    row), so the whole matrix is never held. Ties break by ascending label
    id: every label tied with the k-th best score is kept, and the kept
    entries, in (row, label) order, are ranked by row, then decreasing score,
    ties in that order (one kernels.rank_within), so each row equals a
    stable sort of the whole row by decreasing score, cut to k.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n_labels:
        raise ValueError(f"k={k} exceeds the {n_labels}-label universe")
    step = max(1, _TOPK_CHUNK_SCORES // n_labels)
    labels, scores = [], []
    for lo in range(0, n_rows, step):
        chunk = score_rows(lo, min(lo + step, n_rows))
        if not np.all(np.isfinite(chunk)):
            raise ValueError("scores must be finite")
        kth = -np.partition(-chunk, k - 1, axis=1)[:, k - 1]
        row, label = np.nonzero(chunk >= kth[:, None])
        val = chunk[row, label]
        # the entries are in (row, label) order, so ties keep ascending labels
        order = kernels.rank_within(row, val)
        counts = np.bincount(row, minlength=chunk.shape[0])
        ranked = Predictions(np.concatenate(([0], np.cumsum(counts))), label[order],
                             val[order], validate=False).head(k)
        labels.append(ranked.labels)
        scores.append(ranked.scores)
    return Predictions(
        np.arange(n_rows + 1) * k,
        np.concatenate(labels) if labels else np.empty(0),
        np.concatenate(scores) if scores else np.empty(0),
        validate=False,
    )


@dataclass(frozen=True)
class PropensityModel:
    """Per-label propensity in (0, 1]; inverse propensities weight hits."""

    p: np.ndarray
    A: float
    B: float
    __eq__ = _value_eq

    def inverse(self) -> np.ndarray:
        return 1.0 / self.p


@dataclass(frozen=True)
class _TopK:
    """The first k entries of every row, their rows and ranks, and which of
    them are hits."""

    top: Predictions
    row: np.ndarray
    rank: np.ndarray
    hit: np.ndarray

    @property
    def label(self) -> np.ndarray:
        return self.top.labels

    @property
    def n(self) -> int:
        return len(self.top)


def _top_entries(
    preds: Predictions, truth: SparseMatrix, k: int, full: bool = True
) -> _TopK:
    """Checks shared by the metrics, then the top-k entries and their hits.

    full requires at least k entries in every row. A label outside
    [0, truth.cols) in some top k is a ValueError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    lengths = preds.lengths()
    if full and np.any(lengths < k):
        t = int(np.argmax(lengths < k))
        raise ValueError(f"prediction {t} has only {lengths[t]} entries, need {k}")
    if len(preds) != truth.rows:
        raise ValueError(
            f"one prediction per test point required: {len(preds)} predictions, "
            f"{truth.rows} points"
        )
    top = preds.head(k)
    top.check_labels(truth.cols)
    row = top.row_ids()
    # the truth keys ascend, as CSR rows hold ascending column ids
    keys = np.repeat(np.arange(truth.rows), truth.row_nnz()) * truth.cols + truth.indices
    key = row * truth.cols + top.labels
    hit = np.zeros(key.shape[0], dtype=bool)
    if keys.shape[0]:
        hit = keys[np.minimum(np.searchsorted(keys, key), keys.shape[0] - 1)] == key
    return _TopK(top=top, row=row, rank=top.ranks(), hit=hit)


def _discounts(k: int) -> np.ndarray:
    return 1.0 / np.log(np.arange(2.0, k + 2.0))


def _truth_top(truth: SparseMatrix, weights: np.ndarray, k: int):
    """Row, rank and weight of the k largest label weights of every truth row."""
    row = np.repeat(np.arange(truth.rows), truth.row_nnz())
    w = weights[truth.indices]
    order = kernels.rank_within(row, w)
    rank = np.arange(w.shape[0]) - truth.indptr[row]
    keep = rank < k
    return row[keep], rank[keep], w[order][keep]


def precision_at_k(preds: Predictions, truth: SparseMatrix, k: int) -> float:
    """Mean fraction of the top k that is correct."""
    t = _top_entries(preds, truth, k)
    if not t.n:
        return 0.0
    per_row = np.bincount(t.row[t.hit], minlength=t.n) / k
    return float(per_row.sum()) / t.n


def ndcg_at_k(preds: Predictions, truth: SparseMatrix, k: int) -> float:
    """Binary-relevance gain at k against the best achievable placement."""
    t = _top_entries(preds, truth, k)
    if not t.n:
        return 0.0
    discounts = _discounts(k)
    achieved = np.bincount(t.row[t.hit], weights=discounts[t.rank[t.hit]],
                           minlength=t.n)
    sizes = truth.row_nnz()
    has = sizes > 0
    ideal = np.cumsum(discounts)[np.minimum(sizes[has], k) - 1]
    return float(np.sum(achieved[has] / ideal)) / t.n


def propensities(
    y_train: SparseMatrix, A: float = 0.55, B: float = 1.5
) -> PropensityModel:
    """Propensity model from train-label frequencies (clamped to at most 1).

    A must be finite and nonnegative, B finite and positive, and every
    resulting propensity must lie in (0, 1]; otherwise this is a ValueError.
    """
    if not (math.isfinite(A) and A >= 0.0):
        raise ValueError(f"propensity A must be finite and nonnegative, got {A}")
    if not (math.isfinite(B) and B > 0.0):
        raise ValueError(f"propensity B must be finite and positive, got {B}")
    n = y_train.rows
    if n < 2:
        raise ValueError("need at least two training points")
    counts = np.bincount(y_train.indices, minlength=y_train.cols).astype(np.float64)
    c = (np.log(n) - 1.0) * (B + 1.0) ** A
    p = np.minimum(1.0 / (1.0 + c * (counts + B) ** (-A)), 1.0)
    if not np.all(p > 0.0):
        raise ValueError(f"propensities with A={A}, B={B} fall outside (0, 1]")
    return PropensityModel(p=p, A=A, B=B)


def _inverse_propensities(prop: PropensityModel, truth: SparseMatrix) -> np.ndarray:
    inv = prop.inverse()
    if inv.shape[0] < truth.cols:
        raise ValueError(
            f"propensities cover {inv.shape[0]} labels, the truth has {truth.cols}"
        )
    return inv


def psp_at_k(
    preds: Predictions, truth: SparseMatrix, prop: PropensityModel, k: int
) -> float:
    """Propensity-scored precision@k, normalized per point.

    The per-point ideal fills min(k, |truth|) slots with the largest true
    inverse propensities and any remaining slots with the unit-propensity
    floor of 1, so unit propensities reduce the metric exactly to p@k.
    """
    t = _top_entries(preds, truth, k)
    if not t.n:
        return 0.0
    inv = _inverse_propensities(prop, truth)
    achieved = np.bincount(t.row[t.hit], weights=inv[t.label[t.hit]], minlength=t.n)
    row, _, w = _truth_top(truth, inv, k)
    ideal = (np.bincount(row, weights=w, minlength=t.n)
             + (k - np.minimum(truth.row_nnz(), k)))
    return float(np.sum(achieved / ideal)) / t.n


def psndcg_at_k(
    preds: Predictions, truth: SparseMatrix, prop: PropensityModel, k: int
) -> float:
    """Propensity-scored gain@k, normalized by the per-point weighted ideal."""
    t = _top_entries(preds, truth, k)
    if not t.n:
        return 0.0
    inv = _inverse_propensities(prop, truth)
    discounts = _discounts(k)
    hit_rank = t.rank[t.hit]
    achieved = np.bincount(t.row[t.hit],
                           weights=inv[t.label[t.hit]] * discounts[hit_rank],
                           minlength=t.n)
    row, rank, w = _truth_top(truth, inv, k)
    ideal = np.bincount(row, weights=w * discounts[rank], minlength=t.n)
    has = truth.row_nnz() > 0
    return float(np.sum(achieved[has] / ideal[has])) / t.n


def coverage_at_k(preds: Predictions, truth: SparseMatrix, k: int) -> float:
    """Fraction of ground-truth labels correctly placed in some top-k list."""
    t = _top_entries(preds, truth, k, full=False)
    present = np.unique(truth.indices)
    if not present.size:
        return 0.0
    return np.unique(t.label[t.hit]).shape[0] / present.shape[0]


def percentile_macro_precision(
    preds: Predictions,
    truth: SparseMatrix,
    y_train: SparseMatrix,
    k: int,
    buckets: Sequence[tuple[float, float]],
) -> list[float]:
    """Equal-weight mean of label-wise precision@k per popularity bucket.

    Labels are ranked by train frequency (percentile 0 = most popular); a
    label that is never predicted counts as precision 0. Buckets (lo, hi),
    lo < hi, must partition [0, 100] in the order given, each ending where
    the next begins, or ValueError is raised; an empty bucket yields NaN.
    """
    buckets = [(float(lo), float(hi)) for lo, hi in buckets]
    starts = [0.0] + [hi for _, hi in buckets]  # each bucket's lo; then 100
    if starts[-1] != 100.0 or any(lo != start or not lo < hi
                                  for (lo, hi), start in zip(buckets, starts)):
        raise ValueError(f"buckets must partition [0, 100] in order, got {buckets}")
    t = _top_entries(preds, truth, k)
    n_labels = y_train.cols
    t.top.check_labels(n_labels)
    counts = np.bincount(y_train.indices, minlength=n_labels)
    order = kernels.rank_within(0, counts)
    pct = np.empty(n_labels, dtype=np.float64)
    pct[order] = 100.0 * np.arange(n_labels) / n_labels

    predicted = np.bincount(t.label, minlength=n_labels)
    correct = np.bincount(t.label[t.hit], minlength=n_labels)
    with np.errstate(invalid="ignore"):
        label_prec = np.where(predicted > 0, correct / np.maximum(predicted, 1), 0.0)

    out: list[float] = []
    for lo, hi in buckets:
        mask = (pct >= lo) & (pct < hi)  # every pct is below 100
        out.append(float(label_prec[mask].mean()) if mask.any() else float("nan"))
    return out


_PREDICTION_ARRAYS = {"indptr": ("iu", 1), "labels": ("iu", 1), "scores": ("f", 1)}


def save_predictions(preds: Predictions, file) -> None:
    """Write preds as an uncompressed .npz archive of indptr, labels and
    scores (dataio.save_arrays): file is a path, written at exactly that
    name, or an open file, a text file through its binary buffer."""
    dataio.save_arrays(file, {"indptr": preds.indptr, "labels": preds.labels,
                              "scores": preds.scores}, "predictions")


def load_predictions(file) -> Predictions:
    """Read an archive written by save_predictions from a path or an open
    file; its arrays are checked once, as any Predictions is.

    A text predictions file of an earlier version, an unreadable archive, a
    missing array or one of another kind or dimension, and rows that break
    the ranked-rows rules are each a ValueError.
    """
    arrays = dataio.load_arrays(file, "predictions", _PREDICTION_ARRAYS, earlier="text")
    return Predictions(arrays["indptr"], arrays["labels"], arrays["scores"])
