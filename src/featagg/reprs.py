"""Per-feature representative vectors used as clustering input.

Two flavours: value profiles across data points (co-occurrence view, one
coordinate per retained point) and weighted label aggregates (co-prediction
view, one coordinate per retained label). Retention follows the volume /
popularity subsampling knobs; with both fractions at 1 the builders reproduce
the exact feature-major transpose and the exact label aggregates X^T Y (one
``kernels.sparse_product``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataio import Dataset
from .sparse import SparseMatrix, SparseVec


@dataclass(frozen=True)
class ReprSet:
    """One representative vector per feature, sharing one ambient dimension."""

    matrix: SparseMatrix
    kind: str  # "x" or "xy"
    normalized: bool = False

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols

    @property
    def n_features(self) -> int:
        return self.matrix.rows

    def repr_vec(self, j: int) -> SparseVec:
        return self.matrix.row(j)


def _ceil_fraction(fraction: float, total: int) -> int:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    # epsilon guards float noise like 0.1 * 30 = 3.0000000000000004
    return min(total, math.ceil(fraction * total - 1e-9))


def selected_points(features: SparseMatrix, doc_fraction: float) -> np.ndarray:
    """Indices of the retained points, largest L1 volume first (ties by index).

    With doc_fraction = 1 every point is retained in original order, so the
    co-occurrence representatives form the exact transpose of the features.
    """
    n = features.rows
    if n == 0:
        raise ValueError("empty dataset")
    keep = _ceil_fraction(doc_fraction, n)
    if keep == n:
        return np.arange(n, dtype=np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), features.row_nnz())
    volumes = np.bincount(row_of, weights=np.abs(features.values), minlength=n)
    return kernels.rank_within(0, volumes)[:keep]


def build_repr_x(ds: Dataset, doc_fraction: float = 0.25) -> ReprSet:
    """Value-profile representatives over the most voluminous points."""
    sel = selected_points(ds.features, doc_fraction)
    matrix = ds.features.take_rows(sel).transpose()
    return ReprSet(matrix=matrix, kind="x", normalized=False)


def build_repr_xy(
    ds: Dataset, doc_fraction: float = 0.25, label_fraction: float = 0.05
) -> ReprSet:
    """Label-aggregate representatives over retained points and labels.

    Coordinates are the retained labels in ascending original id order, so
    fractions of 1 reproduce the plain aggregate over all labels.
    """
    sel = selected_points(ds.features, doc_fraction)
    n_labels = ds.n_labels
    keep = _ceil_fraction(label_fraction, n_labels) if n_labels else 0
    counts = np.bincount(ds.labels.indices, minlength=n_labels)
    sel_labels = np.sort(kernels.rank_within(0, counts)[:keep])

    # Y restricted to the retained points and labels: Y_sel S, for the L x keep
    # 0/1 matrix S that maps each retained label to its coordinate
    ysub = ds.labels.take_rows(sel)
    ysel = kernels.sparse_product(
        ysub.indptr, ysub.indices, ysub.values,
        np.searchsorted(sel_labels, np.arange(n_labels + 1)), np.arange(keep),
        np.ones(keep), keep,
    )
    # X_sel^T (Y_sel S): each (j, l) entry adds its points' terms in retained
    # order, as a per-feature weighted sum of label rows would. With no label
    # retained (keep = 0) there are no keys to divide by it.
    xt = ds.features.take_rows(sel).transpose()
    indptr, indices, sums = kernels.sparse_product(
        xt.indptr, xt.indices, xt.values, *ysel, keep
    )
    matrix = SparseMatrix(ds.d, keep, indptr, indices, sums, validate=False)
    return ReprSet(matrix=matrix, kind="xy", normalized=False)


def normalize(rs: ReprSet) -> ReprSet:
    """Scale every nonzero representative to unit L2 norm."""
    m = rs.matrix
    norms = np.sqrt(m.row_sq_norms())
    scale = np.divide(1.0, norms, out=np.ones(m.rows), where=norms > 0)
    values = m.values * np.repeat(scale, m.row_nnz())
    matrix = SparseMatrix(m.rows, m.cols, m.indptr, m.indices, values, validate=False)
    return ReprSet(matrix=matrix, kind=rs.kind, normalized=True)


def build(
    ds: Dataset,
    mode: str = "x",
    doc_fraction: float = 0.25,
    label_fraction: float = 0.05,
    do_normalize: bool = True,
) -> ReprSet:
    """Build representatives for the requested mode, normalized by default."""
    if mode == "x":
        rs = build_repr_x(ds, doc_fraction)
    elif mode == "xy":
        rs = build_repr_xy(ds, doc_fraction, label_fraction)
    else:
        raise ValueError(f"mode must be 'x' or 'xy', got {mode!r}")
    return normalize(rs) if do_normalize else rs
