"""Classification evaluation over ranked label predictions.

Precision@k and gain@k with binary relevance, propensity-scored variants that
up-weight rare-label hits, coverage@k, and macro precision by train-popularity
percentile bucket. All metrics live in [0, 1] and average over test points
(or labels, for the macro variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .sparse import SparseMatrix


@dataclass(frozen=True)
class Prediction:
    """Ranked labels for one test point: unique ids, non-increasing scores."""

    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scores", scores)
        if labels.shape != scores.shape:
            raise ValueError("labels and scores must have equal length")
        if np.unique(labels).shape[0] != labels.shape[0]:
            raise ValueError("label ids must be unique")
        if scores.shape[0] > 1 and np.any(np.diff(scores) > 0):
            raise ValueError("scores must be non-increasing")


PredictionList = list[Prediction]


@dataclass(frozen=True)
class PropensityModel:
    """Per-label propensity in (0, 1]; inverse propensities weight hits."""

    p: np.ndarray
    A: float
    B: float

    def inverse(self) -> np.ndarray:
        return 1.0 / self.p


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


def propensities(
    y_train: SparseMatrix | np.ndarray, A: float = 0.55, B: float = 1.5
) -> PropensityModel:
    """Propensity model from train-label frequencies (clamped into (0, 1])."""
    if isinstance(y_train, SparseMatrix):
        n = y_train.rows
        counts = np.bincount(y_train.indices, minlength=y_train.cols).astype(np.float64)
    else:
        raise ValueError("y_train must be the training label matrix")
    if n < 2:
        raise ValueError("need at least two training points")
    c = (np.log(n) - 1.0) * (B + 1.0) ** A
    p = 1.0 / (1.0 + c * (counts + B) ** (-A))
    return PropensityModel(p=np.minimum(p, 1.0), A=A, B=B)


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


def save_predictions(preds: PredictionList, stream: IO[str]) -> None:
    """One line per point of space-separated label:score pairs, ranked."""
    for pr in preds:
        stream.write(
            " ".join(f"{l}:{float(s)!r}" for l, s in zip(pr.labels, pr.scores))
        )
        stream.write("\n")


def load_predictions(stream: IO[str]) -> PredictionList:
    preds: PredictionList = []
    for line in stream:
        line = line.strip()
        pairs = [tok.partition(":") for tok in line.split()] if line else []
        labels = np.array([int(h) for h, _, _ in pairs], dtype=np.int64)
        scores = np.array([float(t) for _, _, t in pairs], dtype=np.float64)
        preds.append(Prediction(labels, scores))
    return preds
