"""Per-feature representative vectors used as clustering input.

Two flavours: value profiles across data points (co-occurrence view, one
coordinate per retained point) and weighted label aggregates (co-prediction
view, one coordinate per retained label). Retention follows the volume /
popularity subsampling knobs; with both fractions at 1 the builders reproduce
the exact feature-major transpose and the exact label aggregates.
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
    order = np.lexsort((np.arange(n), -volumes))
    return order[:keep]


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
    order = np.lexsort((np.arange(n_labels), -counts))
    sel_labels = np.sort(order[:keep])

    label_map = np.full(n_labels, -1, dtype=np.int64)
    label_map[sel_labels] = np.arange(keep, dtype=np.int64)

    ysub = ds.labels.take_rows(sel)
    mapped = label_map[ysub.indices] if ysub.indices.size else ysub.indices
    hit = mapped >= 0
    row_of = np.repeat(np.arange(sel.shape[0]), ysub.row_nnz())[hit]
    y_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(row_of, minlength=sel.shape[0]), dtype=np.int64))
    )
    y_indices = mapped[hit]
    y_values = ysub.values[hit]

    # Expand every nonzero x_ij of X^T over point i's retained labels l and
    # coalesce equal (j, l) keys. coalesce adds each key's terms in expansion
    # order (points ascending, then stored label order), as a per-feature
    # weighted sum of label rows would. With no label retained (keep = 0)
    # there are no keys to divide by it.
    xt = ds.features.take_rows(sel).transpose()
    starts, ends = y_indptr[xt.indices], y_indptr[xt.indices + 1]
    flat = kernels.concat_ranges(starts, ends)
    reps = ends - starts
    feat = np.repeat(np.repeat(np.arange(ds.d, dtype=np.int64), xt.row_nnz()), reps)
    indptr, indices, sums = kernels.coalesce(
        feat * keep + y_indices[flat], y_values[flat] * np.repeat(xt.values, reps),
        ds.d, keep,
    )
    matrix = SparseMatrix(ds.d, keep, indptr, indices, sums, validate=False)
    return ReprSet(matrix=matrix, kind="xy", normalized=False)


def normalize(rs: ReprSet) -> ReprSet:
    """Scale every nonzero representative to unit L2 norm."""
    m = rs.matrix
    row_of = np.repeat(np.arange(m.rows), m.row_nnz())
    sq = np.bincount(row_of, weights=m.values * m.values, minlength=m.rows)
    norms = np.sqrt(sq)
    scale = np.ones(m.rows, dtype=np.float64)
    nz = norms > 0
    scale[nz] = 1.0 / norms[nz]
    values = m.values * scale[row_of] if m.values.size else m.values
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
