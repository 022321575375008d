"""Block-diagonal pseudo co-occurrence and feature imputation.

The co-occurrence of features is approximated within clusters only: one dense
symmetric block per cluster holding the sum of outer products of the cluster-
restricted data rows. Storage is at most d*d0 entries instead of d^2, and
applying the matrix to a vector never leaves the clusters the vector touches.
Also houses the feature-erasure simulator for robustness experiments.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dataio import Dataset, load_arrays, save_arrays
from .sparse import SparseMatrix, SparseVec, norm
from .tree import FeaturePartition, split_sizes


class PseudoCooc:
    """Per-cluster dense blocks plus the feature -> (cluster, offset) map."""

    __slots__ = ("partition", "blocks", "offset_of", "row_normalized")

    def __init__(
        self,
        partition: FeaturePartition,
        blocks: list[np.ndarray],
        row_normalized: bool = False,
    ):
        if len(blocks) != partition.n_clusters:
            raise ValueError("one block per cluster required")
        for k, (block, cluster) in enumerate(zip(blocks, partition.clusters)):
            dk = cluster.shape[0]
            if block.shape != (dk, dk):
                raise ValueError(f"block {k} must be {dk}x{dk}, got {block.shape}")
        self.partition = partition
        self.blocks = blocks
        self.offset_of = _offsets(partition)
        self.row_normalized = row_normalized

    @property
    def d(self) -> int:
        return self.partition.d

    def stored_entries(self) -> int:
        return int(sum(b.size for b in self.blocks))


def _offsets(part: FeaturePartition) -> np.ndarray:
    """Each feature's position within its cluster."""
    sizes = part.sizes()
    offset_of = np.empty(part.d, dtype=np.int64)
    if part.clusters:
        offset_of[np.concatenate(part.clusters)] = (
            np.arange(part.d) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        )
    return offset_of


_COOC_ARRAYS = {"d": ("iu", 0), "sizes": ("iu", 1), "features": ("iu", 1),
                "blocks": ("f", 1), "row_normalized": ("b", 0)}


def save_cooc(c: PseudoCooc, path: str) -> None:
    """Write c as an .npz archive at path, whatever its extension.

    The clusters are stored as their sizes and their concatenated feature
    ids, the blocks as one flat array in cluster order.
    """
    clusters = c.partition.clusters
    save_arrays(path, {
        "d": np.array(c.d, dtype=np.int64),
        "sizes": c.partition.sizes(),
        "features": (np.concatenate(clusters) if clusters
                     else np.empty(0, dtype=np.int64)),
        "blocks": (np.concatenate([b.ravel() for b in c.blocks]) if c.blocks
                   else np.empty(0, dtype=np.float64)),
        "row_normalized": np.array(c.row_normalized),
    })


def load_cooc(path: str) -> PseudoCooc:
    """Read blocks saved by save_cooc; a malformed file is a ValueError.

    Clusters that overlap, leave a feature uncovered or are empty are an
    InvariantError, as for any partition.
    """
    arrays = load_arrays(path, "co-occurrence", _COOC_ARRAYS)
    d = int(arrays["d"])
    sizes = arrays["sizes"].astype(np.int64)
    features, flat = arrays["features"], arrays["blocks"]
    if d < 0:
        raise ValueError(f"co-occurrence d must be a non-negative integer, got {d}")
    if np.any(sizes < 0):
        raise ValueError("co-occurrence cluster sizes must be non-negative")
    if features.shape[0] != d or int(sizes.sum()) != d:
        raise ValueError(
            f"co-occurrence clusters hold {features.shape[0]} features in "
            f"sizes summing to {int(sizes.sum())}, expected d = {d}"
        )
    if flat.shape[0] != int((sizes * sizes).sum()):
        raise ValueError(
            f"co-occurrence blocks hold {flat.shape[0]} values, one block per "
            f"cluster needs {int((sizes * sizes).sum())}"
        )
    part = FeaturePartition.from_clusters(d, split_sizes(features, sizes))
    blocks = [b.reshape(k, k) for b, k in zip(split_sizes(flat, sizes * sizes), sizes)]
    return PseudoCooc(part, blocks, row_normalized=bool(arrays["row_normalized"]))


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
    block_start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    flat = np.zeros(int(block_start[-1]), dtype=np.float64)
    kernels.cooc_accumulate(
        feats.indptr, feats.indices, feats.values,
        part.cluster_of, _offsets(part), block_start[:-1], sizes, flat,
    )
    blocks = []
    for k in range(part.n_clusters):
        dk = int(sizes[k])
        block = flat[block_start[k]:block_start[k + 1]].reshape(dk, dk).copy()
        if row_normalize:
            rs = block.sum(axis=1)
            nz = rs != 0.0
            block[nz] = block[nz] / rs[nz, None]
        blocks.append(block)
    return PseudoCooc(part, blocks, row_normalized=row_normalize)


def impute(c: PseudoCooc, x: SparseVec) -> SparseVec:
    """Block-wise matrix-vector product; only touched clusters produce output."""
    if x.dim != c.d:
        raise ValueError(f"vector dim {x.dim} != co-occurrence dim {c.d}")
    if x.nnz == 0:
        return SparseVec(c.d, validate=False)
    part = c.partition
    touched = np.unique(part.cluster_of[x.indices])
    out_idx: list[np.ndarray] = []
    out_val: list[np.ndarray] = []
    for k in touched:
        cluster = part.clusters[k]
        xk = np.zeros(cluster.shape[0], dtype=np.float64)
        inside = part.cluster_of[x.indices] == k
        xk[c.offset_of[x.indices[inside]]] = x.values[inside]
        yk = c.blocks[k] @ xk
        out_idx.append(cluster)
        out_val.append(yk)
    idx = np.concatenate(out_idx)
    val = np.concatenate(out_val)
    order = np.argsort(idx)
    idx, val = idx[order], val[order]
    keep = val != 0.0
    return SparseVec(c.d, idx[keep], val[keep], validate=False)


def impute_blend(c: PseudoCooc, x: SparseVec, lam: float = 0.0) -> SparseVec:
    """lam * x + (1 - lam) * rescaled imputation.

    The imputed vector is rescaled to x's L2 norm so the blend mixes vectors
    of comparable magnitude; with lam = 0 this is pure (rescaled) imputation.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    imputed = impute(c, x)
    ni, nx = norm(imputed, 2), norm(x, 2)
    scale = nx / ni if ni > 0 and nx > 0 else 1.0
    # merge over the union of both supports; each entry gets the arithmetic
    # of the dense formula (imputed * c) + lam * x, with 0 for a missing side
    idx = np.union1d(imputed.indices, x.indices)
    val = np.zeros(idx.shape[0], dtype=np.float64)
    val[np.searchsorted(idx, imputed.indices)] = imputed.values * ((1.0 - lam) * scale)
    val[np.searchsorted(idx, x.indices)] += lam * x.values
    keep = val != 0.0
    return SparseVec(c.d, idx[keep], val[keep], validate=False)


def impute_matrix(c: PseudoCooc, sm: SparseMatrix, lam: float = 0.0) -> SparseMatrix:
    rows = [impute_blend(c, sm.row(i), lam) for i in range(sm.rows)]
    return SparseMatrix.from_rows(rows, sm.cols)


def erase(x: SparseVec, fraction: float, rng: np.random.Generator) -> SparseVec:
    """Uniformly remove round(fraction * nnz) stored entries."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    remove = int(np.floor(fraction * x.nnz + 0.5))
    if remove <= 0:
        return x
    if remove >= x.nnz:
        return SparseVec(x.dim, validate=False)
    drop = rng.choice(x.nnz, size=remove, replace=False)
    keep = np.ones(x.nnz, dtype=bool)
    keep[drop] = False
    return SparseVec(x.dim, x.indices[keep], x.values[keep], validate=False)


def erase_matrix(
    sm: SparseMatrix, fraction: float, rng: np.random.Generator
) -> SparseMatrix:
    """Row-wise erasure with one shared RNG stream (order-deterministic)."""
    rows = [erase(sm.row(i), fraction, rng) for i in range(sm.rows)]
    return SparseMatrix.from_rows(rows, sm.cols)
