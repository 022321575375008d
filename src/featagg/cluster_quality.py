"""Clustering-quality metrics: mutual information, its normalized loss,
balance factor and normalized entropy of cluster sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import kernels
from .agglomerate import SUM, agglomerate_matrix
from .dataio import Dataset
from .sparse import SparseMatrix
from .tree import FeaturePartition


@dataclass(frozen=True)
class ClusterQualityReport:
    lmi: float
    balance: float
    normalized_entropy: float

    def to_dict(self) -> dict:
        return asdict(self)


def mutual_information(Z: SparseMatrix, Y: SparseMatrix) -> float:
    """Mutual information of the feature-label joint probability matrix.

    The joint is the label-weighted feature mass P[j, l] = sum_i Z[i,j]*Y[i,l]
    normalized to total mass 1; marginals are its row and column sums, which
    makes the result a true mutual information (nonnegative, zero under
    independence).
    """
    if Z.rows != Y.rows:
        raise ValueError(f"Z has {Z.rows} rows, Y has {Y.rows}")
    if Z.values.size and np.any(Z.values < 0):
        raise ValueError("feature values must be nonnegative")
    zt = Z.transpose()
    ylen = Y.row_nnz().astype(np.float64)
    row_sums = kernels.row_dots(zt.indptr, zt.indices, zt.values, ylen)
    zsum = np.bincount(np.repeat(np.arange(Z.rows), Z.row_nnz()), weights=Z.values,
                       minlength=Z.rows)
    y_row = np.repeat(np.arange(Y.rows), Y.row_nnz())
    col_sums = np.bincount(Y.indices, weights=zsum[y_row], minlength=Y.cols)
    total = float(row_sums.sum())
    if total == 0.0:
        raise ValueError("all-zero feature-label joint")
    return float(
        kernels.mi_accumulate(
            zt.indptr, zt.indices, zt.values,
            Y.indptr, Y.indices, row_sums, col_sums, total,
        )
    )


def lmi(X: SparseMatrix, X_agg: SparseMatrix, Y: SparseMatrix) -> float:
    """Normalized loss of mutual information caused by agglomeration."""
    base = mutual_information(X, Y)
    if base <= 0.0:
        raise ValueError("original features carry no label information")
    return (base - mutual_information(X_agg, Y)) / base


def _sizes(part_or_sizes: FeaturePartition | Sequence[int]) -> np.ndarray:
    if isinstance(part_or_sizes, FeaturePartition):
        return part_or_sizes.sizes()
    return np.asarray(part_or_sizes, dtype=np.int64)


def balance_factor(part_or_sizes: FeaturePartition | Sequence[int]) -> float:
    """max cluster size / min cluster size; infinity on an empty cluster."""
    sizes = _sizes(part_or_sizes)
    if sizes.shape[0] == 0:
        raise ValueError("no clusters")
    smallest = int(sizes.min())
    if smallest == 0:
        return math.inf
    return float(sizes.max()) / smallest


def normalized_entropy(part_or_sizes: FeaturePartition | Sequence[int]) -> float:
    """Entropy of the cluster-size distribution scaled to [0, 1].

    Normalized by ln K, the maximum achievable with K declared clusters, so a
    perfectly even split scores 1 regardless of K; a single cluster scores 0.
    (Normalizing by ln d instead would cap every K-cluster partition at
    ln K / ln d, contradicting the near-1 scores balanced trees are expected
    to reach.)
    """
    sizes = _sizes(part_or_sizes).astype(np.float64)
    d = int(sizes.sum())
    if d < 2:
        raise ValueError("need at least two features")
    k = sizes.shape[0]
    if k <= 1:
        return 0.0
    frac = sizes[sizes > 0] / d
    return float(-np.sum(frac * np.log(frac)) / math.log(k))


def quality_report(ds: Dataset, part: FeaturePartition,
                   mode: str = SUM) -> ClusterQualityReport:
    """Full report for a partition of ds's features (metrics use the full
    dataset, never the subsampled clustering input)."""
    agg = agglomerate_matrix(ds.features, part, mode)
    return ClusterQualityReport(
        lmi=lmi(ds.features, agg, ds.labels),
        balance=balance_factor(part),
        normalized_entropy=normalized_entropy(part),
    )
