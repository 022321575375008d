"""The per-row ranking code that ``featagg.xcmetrics.Predictions`` replaced.

Metrics, top-k, prototypes and reranking as they were when
predictions were a list of per-row ``Prediction`` objects: each loops over
rows (or labels) in Python. They are kept unchanged as the reference that
``tests/test_predictions.py`` compares the segment-wise versions with, as
``tests/kernel_reference.py`` does for the kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from featagg import kernels
from featagg.cooc import PseudoCooc
from featagg.dataio import Dataset
from featagg.linear import OvaModel, probability_scores
from featagg.reranking import PrototypeSet
from featagg.sparse import SparseMatrix
from featagg.xcmetrics import Prediction, PropensityModel

PredictionList = list[Prediction]

_LOG_FLOOR = 1e-300  # keeps log(affinity) finite when the kernel underflows


def truth_rows(truth: SparseMatrix) -> list[np.ndarray]:
    return [truth.indices[truth.indptr[i]:truth.indptr[i + 1]]
            for i in range(truth.rows)]


def _check_k(preds: PredictionList, k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    for t, pr in enumerate(preds):
        if pr.labels.shape[0] < k:
            raise ValueError(
                f"prediction {t} has only {pr.labels.shape[0]} entries, need {k}"
            )


def _check_rows(preds: PredictionList, truth: SparseMatrix) -> None:
    if len(preds) != truth.rows:
        raise ValueError(
            f"one prediction per test point required: {len(preds)} predictions, "
            f"{truth.rows} points"
        )


def precision_at_k(preds: PredictionList, truth: SparseMatrix, k: int) -> float:
    """Mean fraction of the top k that is correct."""
    _check_k(preds, k)
    _check_rows(preds, truth)
    rows = truth_rows(truth)
    total = 0.0
    for pr, t in zip(preds, rows):
        total += np.isin(pr.labels[:k], t, assume_unique=True).sum() / k
    return total / len(preds) if preds else 0.0


def ndcg_at_k(preds: PredictionList, truth: SparseMatrix, k: int) -> float:
    """Binary-relevance gain at k against the best achievable placement."""
    _check_k(preds, k)
    _check_rows(preds, truth)
    rows = truth_rows(truth)
    discounts = 1.0 / np.log(np.arange(2.0, k + 2.0))
    total = 0.0
    for pr, t in zip(preds, rows):
        if t.shape[0] == 0:
            continue
        hits = np.isin(pr.labels[:k], t, assume_unique=True)
        ideal = discounts[: min(k, t.shape[0])].sum()
        total += float(discounts[hits].sum()) / ideal
    return total / len(preds) if preds else 0.0


def psp_at_k(
    preds: PredictionList, truth: SparseMatrix, prop: PropensityModel, k: int
) -> float:
    """Propensity-scored precision@k, normalized per point.

    The per-point ideal fills min(k, |truth|) slots with the largest true
    inverse propensities and any remaining slots with the unit-propensity
    floor of 1, so unit propensities reduce the metric exactly to p@k.
    """
    _check_k(preds, k)
    _check_rows(preds, truth)
    rows = truth_rows(truth)
    inv = prop.inverse()
    total = 0.0
    for pr, t in zip(preds, rows):
        top = pr.labels[:k]
        hits = np.isin(top, t, assume_unique=True)
        achieved = float(inv[top[hits]].sum())
        true_w = np.sort(inv[t])[::-1][:k]
        ideal = float(true_w.sum()) + (k - true_w.shape[0])
        total += achieved / ideal
    return total / len(preds) if preds else 0.0


def psndcg_at_k(
    preds: PredictionList, truth: SparseMatrix, prop: PropensityModel, k: int
) -> float:
    """Propensity-scored gain@k, normalized by the per-point weighted ideal."""
    _check_k(preds, k)
    _check_rows(preds, truth)
    rows = truth_rows(truth)
    inv = prop.inverse()
    discounts = 1.0 / np.log(np.arange(2.0, k + 2.0))
    total = 0.0
    for pr, t in zip(preds, rows):
        if t.shape[0] == 0:
            continue
        top = pr.labels[:k]
        hits = np.isin(top, t, assume_unique=True)
        achieved = float(np.sum(inv[top[hits]] * discounts[hits]))
        true_w = np.sort(inv[t])[::-1][: min(k, t.shape[0])]
        ideal = float(np.sum(true_w * discounts[: true_w.shape[0]]))
        total += achieved / ideal
    return total / len(preds) if preds else 0.0


def coverage_at_k(preds: PredictionList, truth: SparseMatrix, k: int) -> float:
    """Fraction of ground-truth labels correctly placed in some top-k list."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_rows(preds, truth)
    rows = truth_rows(truth)
    present: set[int] = set()
    covered: set[int] = set()
    for pr, t in zip(preds, rows):
        present.update(int(l) for l in t)
        top = pr.labels[: min(k, pr.labels.shape[0])]
        covered.update(int(l) for l in top[np.isin(top, t, assume_unique=True)])
    if not present:
        return 0.0
    return len(covered) / len(present)


def percentile_macro_precision(
    preds: PredictionList,
    truth: SparseMatrix,
    y_train: SparseMatrix,
    k: int,
    buckets: Sequence[tuple[float, float]],
) -> list[float]:
    """Equal-weight mean of label-wise precision@k per popularity bucket.

    Labels are ranked by train frequency (percentile 0 = most popular); a
    label that is never predicted counts as precision 0. Buckets must
    partition [0, 100]; an empty bucket yields NaN.
    """
    _check_k(preds, k)
    _check_rows(preds, truth)
    n_labels = y_train.cols
    for t, pr in enumerate(preds):
        top = pr.labels[:k]
        if top.min() < 0 or top.max() >= n_labels:
            raise ValueError(
                f"prediction {t} has a label outside [0, {n_labels})"
            )
    counts = np.bincount(y_train.indices, minlength=n_labels)
    order = np.lexsort((np.arange(n_labels), -counts))
    pct = np.empty(n_labels, dtype=np.float64)
    pct[order] = 100.0 * np.arange(n_labels) / n_labels

    predicted = np.zeros(n_labels, dtype=np.int64)
    correct = np.zeros(n_labels, dtype=np.int64)
    rows = truth_rows(truth)
    for pr, t in zip(preds, rows):
        top = pr.labels[:k]
        predicted[top] += 1
        correct[top[np.isin(top, t, assume_unique=True)]] += 1
    with np.errstate(invalid="ignore"):
        label_prec = np.where(predicted > 0, correct / np.maximum(predicted, 1), 0.0)

    out: list[float] = []
    for lo, hi in buckets:
        if hi >= 100.0:
            mask = (pct >= lo) & (pct <= hi)
        else:
            mask = (pct >= lo) & (pct < hi)
        out.append(float(label_prec[mask].mean()) if mask.any() else float("nan"))
    return out


def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    return order, scores[order]


def predict(model: OvaModel, x: SparseMatrix, k: int) -> PredictionList:
    """Top-k labels per point by score, ties by ascending label id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > model.n_labels:
        raise ValueError(f"k={k} exceeds the {model.n_labels}-label universe")
    scores = probability_scores(model, x)
    out: PredictionList = []
    for row in scores:
        labels, vals = _top_k(row, k)
        out.append(Prediction(labels, vals))
    return out


def cli_top_k(scores: np.ndarray, k: int) -> PredictionList:
    """The top-k of ``featagg predict``, as the command ran it on its dense
    score matrix (k already clamped to the number of labels)."""
    preds = []
    n_labels = scores.shape[1]
    for row in scores:
        order = np.lexsort((np.arange(n_labels), -row))[:k]
        preds.append(Prediction(order, row[order]))
    return preds


def build_prototypes(
    c: PseudoCooc, ds: Dataset, normalize: bool = True, gamma: float = 1.0
) -> PrototypeSet:
    """Prototype of label l = co-occurrence matrix times the sum of its
    positive points; optional per-prototype unit L2 normalization."""
    feats = ds.features
    if feats.cols != c.d:
        raise ValueError(f"dataset dim {feats.cols} != co-occurrence dim {c.d}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    yt = ds.labels.transpose()
    part = c.partition
    indices, values = [], []
    for l in range(ds.n_labels):
        s, e = yt.indptr[l], yt.indptr[l + 1]
        if e == s:
            indices.append([])
            values.append([])
            continue
        accum = kernels.sum_rows(
            feats.indptr, feats.indices, feats.values, yt.indices[s:e], c.d
        )
        proto = np.zeros(c.d, dtype=np.float64)
        for k, cluster in enumerate(part.clusters):
            proto[cluster] = c.blocks[k] @ accum[cluster]
        if normalize:
            nrm = math.sqrt(float(np.dot(proto, proto)))
            if nrm > 0:
                proto /= nrm
        indices.append(np.flatnonzero(proto))
        values.append(proto[indices[-1]])
    return PrototypeSet(
        matrix=SparseMatrix.from_rows(c.d, indices, values), gamma=gamma,
        normalized=normalize,
    )


def affinity_scores(
    x: SparseMatrix, ps: PrototypeSet, labels: np.ndarray,
    proto_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Affinities of the one-row query x to a shortlist of labels in one pass."""
    labels = np.asarray(labels, dtype=np.int64)
    sub = ps.matrix.take_rows(labels)
    dense = x.to_dense()[0]
    dots = kernels.row_dots(sub.indptr, sub.indices, sub.values, dense)
    if proto_sq_norms is None:
        row_of = np.repeat(np.arange(sub.rows), sub.row_nnz())
        sq_p = np.bincount(row_of, weights=sub.values**2, minlength=sub.rows)
    else:
        sq_p = proto_sq_norms[labels]
    sq = x.row_sq_norms()[0] + sq_p - 2.0 * dots
    return np.exp(-0.5 * ps.gamma * np.maximum(sq, 0.0))


def rerank(
    base_labels: np.ndarray,
    base_scores: np.ndarray,
    affinities: np.ndarray,
    alpha: float = 0.8,
) -> tuple[np.ndarray, np.ndarray]:
    """Combine log base scores with log affinities; rank descending.

    Labels with nonpositive base score are excluded (their log is undefined).
    Ties break by ascending label id. Rescaling every base score by a common
    positive factor shifts all combined scores equally, leaving the ranking
    unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    base_labels = np.asarray(base_labels, dtype=np.int64)
    base_scores = np.asarray(base_scores, dtype=np.float64)
    affinities = np.asarray(affinities, dtype=np.float64)
    keep = base_scores > 0.0
    labels = base_labels[keep]
    combined = alpha * np.log(base_scores[keep]) + (1.0 - alpha) * np.log(
        np.maximum(affinities[keep], _LOG_FLOOR)
    )
    order = np.lexsort((labels, -combined))
    return labels[order], combined[order]


def rerank_predictions(
    preds: PredictionList,
    ps: PrototypeSet,
    x_test: SparseMatrix,
    alpha: float = 0.8,
    shortlist: int = 100,
) -> PredictionList:
    """Rerank each point's top shortlist by combined score.

    Test vectors are unit-normalized when the prototypes are, so distances
    stay in [0, 2] and the kernel width has a stable meaning.
    """
    if len(preds) != x_test.rows:
        raise ValueError("one base prediction per test row required")
    sq_norms = ps.sq_norms()
    out: PredictionList = []
    for i, pr in enumerate(preds):
        labels = pr.labels[:shortlist]
        scores = pr.scores[:shortlist]
        x = x_test.slice_rows(i, i + 1)
        if ps.normalized:
            nrm = math.sqrt(x.row_sq_norms()[0])
            if nrm > 0:
                x = SparseMatrix(1, x.cols, x.indptr, x.indices, x.values / nrm,
                                 validate=False)
        aff = affinity_scores(x, ps, labels, proto_sq_norms=sq_norms)
        new_labels, combined = rerank(labels, scores, aff, alpha)
        out.append(Prediction(new_labels, combined))
    return out
