"""Apply a feature partition to feature matrices and datasets.

Each cluster becomes one super-feature holding the sum (default) or mean of
its members. The map never densifies: an output row cannot have more stored
entries than its input row, and exact-zero sums are stripped.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dataio import Dataset
from .sparse import SparseMatrix
from .tree import FeaturePartition

SUM = "sum"
AVERAGE = "avg"
MODES = (SUM, AVERAGE)


def _divisors(part: FeaturePartition, mode: str) -> np.ndarray:
    if mode == SUM:
        return np.empty(0, dtype=np.float64)
    if mode == AVERAGE:
        return part.sizes().astype(np.float64)
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def agglomerate_matrix(
    sm: SparseMatrix, part: FeaturePartition, mode: str = SUM
) -> SparseMatrix:
    if sm.cols != part.d:
        raise ValueError(f"matrix cols {sm.cols} != partition dim {part.d}")
    divisors = _divisors(part, mode)
    indptr, indices, values = kernels.agglomerate_csr(
        sm.indptr, sm.indices, sm.values, part.cluster_of, part.n_clusters, divisors
    )
    return SparseMatrix(sm.rows, part.n_clusters, indptr, indices, values,
                        validate=False)


def agglomerate_dataset(
    ds: Dataset, part: FeaturePartition, mode: str = SUM
) -> Dataset:
    """Row-wise feature agglomeration; labels pass through unchanged."""
    return Dataset(agglomerate_matrix(ds.features, part, mode), ds.labels)
