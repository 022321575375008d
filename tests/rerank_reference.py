"""The rerank dot products as ``featagg.reranking`` computed them before it
read each shortlisted dot from a key table: whole rows of x P^T from
``kernels.product_chunks`` (each chunk's CSR triple), and the shortlisted
dots found in them by binary search. Kept unchanged as the reference that
``tests/test_reranking.py`` compares both of today's paths with.
"""

from __future__ import annotations

import numpy as np

from featagg import kernels
from featagg.reranking import PrototypeSet, _rank, check_rerank_settings
from featagg.sparse import SparseMatrix, SparseVec
from featagg.xcmetrics import Predictions


def _prepare(short: Predictions, ps: PrototypeSet, x: SparseMatrix, normalize: bool):
    if x.cols != ps.dim:
        raise ValueError(f"test dim {x.cols} != prototype dim {ps.dim}")
    short.check_labels(ps.n_labels)
    x_norm = np.sqrt(x.row_sq_norms())
    if normalize:
        values = x.values / np.repeat(np.where(x_norm > 0, x_norm, 1.0), x.row_nnz())
        x = SparseMatrix(x.rows, x.cols, x.indptr, x.indices, values, validate=False)
        x_norm = np.sqrt(x.row_sq_norms())
    return x, x_norm ** 2, ps.matrix.transpose(), ps.sq_norms()


def _affinities(ps, p_sq, product, x_sq, rows, labels):
    n_labels = ps.n_labels
    indptr, cols, prods = product
    dots = np.zeros(rows.shape[0], dtype=np.float64)
    if prods.shape[0]:
        # the product's (row, label) keys ascend; an absent key is a 0 dot
        keys = np.repeat(np.arange(x_sq.shape[0]), np.diff(indptr)) * n_labels + cols
        key = rows * n_labels + labels
        at = np.minimum(np.searchsorted(keys, key), keys.shape[0] - 1)
        hit = keys[at] == key
        dots[hit] = prods[at[hit]]
    sq = x_sq[rows] + p_sq[labels] - 2.0 * dots
    return np.exp(-0.5 * ps.gamma * np.maximum(sq, 0.0))


def affinity_scores(x: SparseVec, ps: PrototypeSet, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    short = Predictions([0, labels.size], labels, np.zeros(labels.size), validate=False)
    x, x_sq, pt, p_sq = _prepare(short, ps, SparseMatrix.from_rows([x]), False)
    product = kernels.sparse_product(x.indptr, x.indices, x.values,
                                     pt.indptr, pt.indices, pt.values, ps.n_labels)
    return _affinities(ps, p_sq, product, x_sq, np.zeros(labels.size, np.int64), labels)


def rerank_predictions(preds, ps, x_test, alpha=0.8, shortlist=100, normalize_queries=None):
    check_rerank_settings(alpha, shortlist)
    preds = Predictions.from_rows(preds)
    if len(preds) != x_test.rows:
        raise ValueError("one base prediction per test row required")
    if normalize_queries is None:
        normalize_queries = ps.normalized
    short = preds.head(shortlist)
    x, x_sq, pt, p_sq = _prepare(short, ps, x_test, normalize_queries)

    ranked = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for lo, hi, *product in kernels.product_chunks(
            x.indptr, x.indices, x.values, pt.indptr, pt.indices, pt.values, ps.n_labels):
        s, e = short.indptr[lo], short.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), short.lengths()[lo:hi])
        aff = _affinities(ps, p_sq, product, x_sq[lo:hi], rows, short.labels[s:e])
        ranked.append(_rank(rows + lo, short.labels[s:e], short.scores[s:e], aff, alpha))
    rows, labels, scores = map(np.concatenate, zip(*ranked))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(short)))))
    return Predictions(indptr, labels, scores, validate=False)
