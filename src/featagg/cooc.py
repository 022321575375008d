"""Block-diagonal pseudo co-occurrence and feature imputation.

The co-occurrence of features is approximated within clusters only: one dense
symmetric block per cluster holding the sum of outer products of the cluster-
restricted data rows. Storage is at most d*d0 entries instead of d^2, and
applying the matrix to a vector never leaves the clusters the vector touches.
The blocks are kept in cluster order as one flat array, each block row-major:
``kernels.cooc_accumulate`` fills it and a saved file stores it as is. The
block starts and each feature's offset within its cluster are computed once
per ``PseudoCooc``, and the transpose of the blocks once, on its first
product, so one product (``kernels.sparse_product``) costs O(nnz * d0)
whatever d. Also houses the feature-erasure simulator for robustness
experiments.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dataio import Dataset, load_arrays, save_arrays
from .sparse import SparseMatrix, _value_eq
from .tree import PARTITION_ARRAYS, FeaturePartition, decode_partition, partition_arrays


class PseudoCooc:
    """The per-cluster blocks as one flat array, plus the block layout."""

    __slots__ = ("partition", "flat", "row_normalized", "block_start", "offset_of",
                 "_transpose")
    __eq__ = _value_eq

    def __init__(
        self,
        partition: FeaturePartition,
        flat: np.ndarray,
        row_normalized: bool = False,
    ):
        """flat holds the blocks in cluster order, each block row-major."""
        sizes = partition.sizes()
        flat = np.asarray(flat, dtype=np.float64)
        need = int((sizes * sizes).sum())
        if flat.shape != (need,):
            raise ValueError(
                f"co-occurrence blocks hold {flat.size} values, one block per "
                f"cluster needs {need} in one flat array"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("co-occurrence blocks must be finite")
        self.partition = partition
        self.flat = flat
        self.row_normalized = row_normalized
        self.block_start = np.concatenate(([0], np.cumsum(sizes * sizes)))
        self.offset_of = np.empty(partition.d, dtype=np.int64)
        self.offset_of[partition.members] = (
            np.arange(partition.d) - np.repeat(partition.ptr[:-1], sizes)
        )
        self._transpose = None

    @property
    def d(self) -> int:
        return self.partition.d

    @property
    def blocks(self) -> list[np.ndarray]:
        """One square view into flat per cluster."""
        return [self.flat[s:s + k * k].reshape(k, k) for s, k in
                zip(self.block_start.tolist(), self.partition.sizes().tolist())]

    def stored_entries(self) -> int:
        return int(self.flat.shape[0])

    def apply(self, sm: SparseMatrix) -> SparseMatrix:
        """Rows of C sm^T: the matrix applied to each row of sm, as sm C^T.
        Row b of C^T holds C[a, b] at each member a of b's cluster; it is
        built on the first call, so flat must be final by then."""
        if sm.cols != self.d:
            raise ValueError(f"data dim {sm.cols} != co-occurrence dim {self.d}")
        if self._transpose is None:
            part = self.partition
            k = part.cluster_of
            size = part.sizes()[k]
            a = kernels.concat_ranges(np.zeros_like(size), size)  # member offsets
            # C[a, b] sits at block_start + a * size + b in the row-major block
            at = (np.repeat(self.block_start[k] + self.offset_of, size)
                  + a * np.repeat(size, size))
            self._transpose = (np.concatenate(([0], np.cumsum(size))),
                               part.members[np.repeat(part.ptr[k], size) + a],
                               self.flat[at])
        indptr, indices, values = kernels.sparse_product(
            sm.indptr, sm.indices, sm.values, *self._transpose, self.d
        )
        return SparseMatrix(sm.rows, self.d, indptr, indices, values, validate=False)


_COOC_ARRAYS = {**PARTITION_ARRAYS, "blocks": ("f", 1), "row_normalized": ("b", 0)}


def save_cooc(c: PseudoCooc, path: str) -> None:
    """Write c as an .npz archive at path, whatever its extension.

    The partition is stored as a partition file stores it, without d0 and
    seed; the blocks as the flat array.
    """
    save_arrays(path, {
        **partition_arrays(c.partition),
        "blocks": c.flat,
        "row_normalized": np.array(c.row_normalized),
    }, "co-occurrence")


def load_cooc(path: str) -> PseudoCooc:
    """Read blocks saved by save_cooc; a malformed file is a ValueError.

    Clusters that overlap, leave a feature uncovered or are empty are an
    InvariantError, as for any partition.
    """
    arrays = load_arrays(path, "co-occurrence", _COOC_ARRAYS)
    return PseudoCooc(decode_partition(arrays, "co-occurrence"), arrays["blocks"],
                      row_normalized=bool(arrays["row_normalized"]))


def build_cooc(
    ds: Dataset, part: FeaturePartition, row_normalize: bool = False
) -> PseudoCooc:
    """Accumulate per-cluster outer-product blocks over all data points.

    row_normalize rescales each block row to sum 1 (a smoothing variant); the
    default keeps the raw sums, diagonal included.
    """
    feats = ds.features
    if feats.cols != part.d:
        raise ValueError(f"dataset dim {feats.cols} != partition dim {part.d}")
    sizes = part.sizes()
    c = PseudoCooc(part, np.zeros(int((sizes * sizes).sum())), row_normalize)
    kernels.cooc_accumulate(
        feats.indptr, feats.indices, feats.values, part.cluster_of, c.offset_of,
        c.block_start[:-1], sizes, c.flat,
    )
    if row_normalize and c.flat.shape[0]:
        row_len = np.repeat(sizes, sizes)
        rs = np.add.reduceat(c.flat, np.cumsum(row_len) - row_len)
        c.flat /= np.repeat(np.where(rs != 0.0, rs, 1.0), row_len)
    return c


def _in_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def impute_matrix(c: PseudoCooc, sm: SparseMatrix, lam: float = 0.0) -> SparseMatrix:
    """lam * x + (1 - lam) * rescaled imputation, for every row x of sm.

    The imputation of x is rescaled to x's L2 norm so the blend mixes
    vectors of comparable magnitude; with lam = 0 this is pure (rescaled)
    imputation.
    """
    _in_unit("lam", lam)
    imputed = c.apply(sm)
    ni, nx = np.sqrt(imputed.row_sq_norms()), np.sqrt(sm.row_sq_norms())
    scale = np.where((ni > 0) & (nx > 0), nx / np.where(ni > 0, ni, 1.0), 1.0)
    # sum over the union of both supports; each entry gets the arithmetic of
    # the dense formula (imputed * c) + lam * x, with 0 for a missing side
    # (zero terms of lam * x, all of them at lam = 0, change no sum)
    row_i = np.repeat(np.arange(sm.rows), imputed.row_nnz())
    row_x = np.repeat(np.arange(sm.rows), sm.row_nnz())
    xs = lam * sm.values
    nz = xs != 0.0
    return SparseMatrix(sm.rows, c.d, *kernels.coalesce(
        np.concatenate((row_i * c.d + imputed.indices, (row_x * c.d + sm.indices)[nz])),
        np.concatenate((imputed.values * ((1.0 - lam) * scale)[row_i], xs[nz])),
        sm.rows, c.d,
    ), validate=False)


def erase_matrix(sm: SparseMatrix, fraction: float,
                 rng: np.random.Generator) -> SparseMatrix:
    """Uniformly erase stored entries of every row from one shared RNG
    stream: each row loses floor(fraction * nnz + 0.5) of its nnz entries
    (halves round up, where Python's round would round them to even), and in
    row order each row that keeps some entries and loses some draws which
    ones it loses."""
    _in_unit("fraction", fraction)
    nnz = sm.row_nnz()
    remove = np.floor(fraction * nnz + 0.5).astype(np.int64)
    keep = np.repeat(remove < nnz, nnz)
    for i in np.flatnonzero((remove > 0) & (remove < nnz)).tolist():
        drop = rng.choice(int(nnz[i]), size=int(remove[i]), replace=False)
        keep[sm.indptr[i] + drop] = False
    kept = np.concatenate(([0], np.cumsum(keep)))
    return SparseMatrix(sm.rows, sm.cols, kept[sm.indptr], sm.indices[keep],
                        sm.values[keep], validate=False)
