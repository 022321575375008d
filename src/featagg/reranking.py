"""Label prototypes from the pseudo co-occurrence matrix and score-combined
reranking.

Each label gets a closed-form prototype: the co-occurrence matrix applied to
the sum of that label's positive points. A test point's affinity to a label is
a Gaussian kernel of its distance to the prototype, and the final ranking
combines log base-classifier scores with log affinities over a shortlist, for
every row of a ``Predictions`` at once. The label sums (rows of Y^T X) come
from ``kernels.sparse_product``. Prototypes and queries are unit-normalized
as representatives are: a row whose squared norm underflows is divided by
its largest magnitude first (``SparseMatrix.row_norms``).

rerank_predictions needs only the shortlisted entries of X P^T, and takes
the cheaper of two exact paths to them. The product path expands a chunk of
test points' products with the prototypes (``kernels.product_pairs``) and
reads each shortlisted dot from that chunk's key table
(``kernels.key_sums``), ranking the chunk before the next. The gather path,
taken only when the prototypes are at least half dense and it costs fewer
gathered entries, holds P dense and sums each shortlisted prototype at its
query's features (``kernels.gather_dots``). Both add a dot's products in the
query's stored order, so the choice, made once per call, changes no byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .cooc import PseudoCooc
from .dataio import Dataset
from .sparse import SparseMatrix
from .xcmetrics import Predictions

_LOG_FLOOR = 1e-300  # keeps log(affinity) finite when the kernel underflows


@dataclass(frozen=True)
class PrototypeSet:
    """One prototype vector per label plus the kernel width."""

    matrix: SparseMatrix  # one row per label, dim = d
    gamma: float
    normalized: bool
    _transpose: SparseMatrix | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def n_labels(self) -> int:
        return self.matrix.rows

    @property
    def dim(self) -> int:
        return self.matrix.cols

    def sq_norms(self) -> np.ndarray:
        return self.matrix.row_sq_norms()

    def transposed(self) -> SparseMatrix:
        """P^T, built on the first call, so matrix must be final by then."""
        if self._transpose is None:
            object.__setattr__(self, "_transpose", self.matrix.transpose())
        return self._transpose


def _check_gamma(gamma: float) -> None:
    """ValueError unless the kernel width gamma is finite and positive."""
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


def build_prototypes(
    c: PseudoCooc, ds: Dataset, normalize: bool = True, gamma: float = 1.0
) -> PrototypeSet:
    """Prototype of label l = co-occurrence matrix times the sum of its
    positive points; optional per-prototype unit L2 normalization, dividing
    by the norm once a row of tiny norm is divided by its largest magnitude
    (SparseMatrix.row_norms).

    The label sums are the rows of Y^T X (each label's points summed in
    order); the co-occurrence matrix is then applied to all of them at once.
    """
    feats = ds.features
    if feats.cols != c.d:
        raise ValueError(f"dataset dim {feats.cols} != co-occurrence dim {c.d}")
    _check_gamma(gamma)
    yt = ds.labels.transpose()
    sums = SparseMatrix(ds.n_labels, c.d, *kernels.sparse_product(
        yt.indptr, yt.indices, yt.values, feats.indptr, feats.indices, feats.values,
        c.d,
    ), validate=False)
    protos = c.apply(sums)
    if normalize:
        protos, _, nrm = protos.row_norms()
        protos.values /= np.repeat(np.where(nrm > 0, nrm, 1.0), protos.row_nnz())
    return PrototypeSet(matrix=protos, gamma=gamma, normalized=normalize)


def _prepare(short: Predictions, ps: PrototypeSet, x: SparseMatrix):
    """Check the shortlist and queries against the prototypes; return the
    queries (unit L2 if the prototypes are, normalized as they are), their
    squared norms, and the prototypes' squared norms."""
    if x.cols != ps.dim:
        raise ValueError(f"test dim {x.cols} != prototype dim {ps.dim}")
    short.check_labels(ps.n_labels)
    if ps.normalized:
        x, _, x_norm = x.row_norms()
        values = x.values / np.repeat(np.where(x_norm > 0, x_norm, 1.0), x.row_nnz())
        x = SparseMatrix(x.rows, x.cols, x.indptr, x.indices, values, validate=False)
    # the square of the rounded norm, not the sum of squares it came from:
    # the two can differ in the last bit, and every reranked score with them
    return x, np.sqrt(x.row_sq_norms()) ** 2, ps.sq_norms()


def _product_dots(ps: PrototypeSet, x: SparseMatrix, short: Predictions):
    """(lo, hi, dots) for the kernels.product_pairs ranges [lo, hi) of query
    rows: the dot of each of their shortlisted prototypes with its query,
    read from the key table of that chunk of x P^T.

    Each dot adds the products of the query's stored entries with the
    prototype's entries at the same feature, in the query's stored order; no
    query is expanded to a dense vector.
    """
    n_labels = ps.n_labels
    pt = ps.transposed()
    lengths = short.lengths()
    for lo, hi, keys, values in kernels.product_pairs(
            x.indptr, x.indices, x.values, pt.indptr, pt.indices, pt.values, n_labels):
        s, e = short.indptr[lo], short.indptr[hi]
        at = np.repeat(np.arange(hi - lo) * n_labels, lengths[lo:hi])
        at += short.labels[s:e]
        yield lo, hi, kernels.key_sums(keys, values, (hi - lo) * n_labels, at)


def _gather_pays(ps: PrototypeSet, x: SparseMatrix, short: Predictions) -> bool:
    """Whether _gather_dots is the cheaper path: the prototypes are at least
    half dense, so that P as a dense array takes no more memory than the CSR
    transpose the product path builds, and the shortlist pairs times their
    queries' nnz plus that array's fill are fewer than the pairs the product
    path expands (each query entry's count of prototypes holding its
    feature)."""
    cells = ps.n_labels * ps.dim
    if 2 * ps.matrix.nnz < cells:
        return False
    gathered = int(np.dot(short.lengths(), x.row_nnz())) + cells
    expanded = int(np.bincount(ps.matrix.indices, minlength=ps.dim)[x.indices].sum())
    return gathered < expanded


def _gather_dots(ps: PrototypeSet, x: SparseMatrix, short: Predictions) -> np.ndarray:
    """The dots of _product_dots, all at once, read from a dense P at each
    query's features (kernels.gather_dots) in the same order: the extra
    terms, query values times 0.0, leave a sum started at 0.0 unchanged."""
    return kernels.gather_dots(x.indptr, x.indices, x.values, short.row_ids(),
                               ps.matrix.to_dense(), short.labels)


def _affinities(
    ps: PrototypeSet, p_sq: np.ndarray, x_sq: np.ndarray, rows: np.ndarray,
    labels: np.ndarray, dots: np.ndarray,
) -> np.ndarray:
    """Affinity of query row rows[i] (squared norms x_sq) to the prototype of
    labels[i] (squared norms p_sq), given their dot product dots[i]."""
    sq = x_sq[rows] + p_sq[labels] - 2.0 * dots
    return np.exp(-0.5 * ps.gamma * np.maximum(sq, 0.0))


def _rank(rows: np.ndarray, labels: np.ndarray, base_scores: np.ndarray,
          affinities: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """Rows, labels and combined scores of the entries with a positive base
    score, by row, then descending combined score, then ascending label."""
    keep = base_scores > 0.0
    rows, labels = rows[keep], labels[keep]
    combined = alpha * np.log(base_scores[keep]) + (1.0 - alpha) * np.log(
        np.maximum(affinities[keep], _LOG_FLOOR)
    )
    if not np.isfinite(combined).all():
        raise ValueError("combined scores must be finite")
    order = kernels.rank_within(rows, combined)
    rows, labels, combined = rows[order], labels[order], combined[order]
    # entries tied on (row, combined score) sit together in position order:
    # order each run by label
    tied = (rows[1:] == rows[:-1]) & (combined[1:] == combined[:-1])
    if tied.any():
        order = kernels.group_order(np.cumsum(np.concatenate(([True], ~tied))), labels)
        rows, labels, combined = rows[order], labels[order], combined[order]
    return rows, labels, combined


def check_rerank_settings(alpha: float, shortlist: int) -> None:
    """ValueError unless alpha lies in [0, 1] and shortlist is at least 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if shortlist < 1:
        raise ValueError(f"shortlist must be at least 1, got {shortlist}")


def rerank_predictions(
    preds: Predictions,
    ps: PrototypeSet,
    x_test: SparseMatrix,
    alpha: float = 0.8,
    shortlist: int = 100,
) -> Predictions:
    """Rerank each point's top shortlist by combined score, alpha * log(base
    score) + (1 - alpha) * log(affinity), descending, ties by ascending label
    id. Labels with a nonpositive base score are dropped; a combined score
    that is not finite is a ValueError.

    Test vectors are unit-normalized exactly when the prototypes are, so
    distances stay in [0, 2] and the kernel width has a stable meaning.
    """
    check_rerank_settings(alpha, shortlist)
    if len(preds) != x_test.rows:
        raise ValueError("one base prediction per test row required")
    short = preds.head(shortlist)
    x, x_sq, p_sq = _prepare(short, ps, x_test)
    chunks = ([(0, len(short), _gather_dots(ps, x, short))] if _gather_pays(ps, x, short)
              else _product_dots(ps, x, short))
    lengths = short.lengths()
    ranked = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for lo, hi, dots in chunks:
        s, e = short.indptr[lo], short.indptr[hi]
        rows = np.repeat(np.arange(lo, hi), lengths[lo:hi])
        aff = _affinities(ps, p_sq, x_sq, rows, short.labels[s:e], dots)
        ranked.append(_rank(rows, short.labels[s:e], short.scores[s:e], aff, alpha))
    rows, labels, scores = map(np.concatenate, zip(*ranked))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(short)))))
    return Predictions(indptr, labels, scores, validate=False)
