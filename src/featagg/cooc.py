"""Block-diagonal pseudo co-occurrence and feature imputation.

The co-occurrence of features is approximated within clusters only: one dense
symmetric block per cluster holding the sum of outer products of the cluster-
restricted data rows. Storage is at most d*d0 entries instead of d^2, and
applying the matrix to a vector never leaves the clusters the vector touches.
Also houses the feature-erasure simulator for robustness experiments.
"""

from __future__ import annotations

import json

import numpy as np

from . import kernels
from .dataio import Dataset
from .sparse import SparseMatrix, SparseVec, norm
from .tree import FeaturePartition, check_partition_payload


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
        offset_of = np.empty(partition.d, dtype=np.int64)
        for cluster in partition.clusters:
            offset_of[cluster] = np.arange(cluster.shape[0])
        self.partition = partition
        self.blocks = blocks
        self.offset_of = offset_of
        self.row_normalized = row_normalized

    @property
    def d(self) -> int:
        return self.partition.d

    def stored_entries(self) -> int:
        return int(sum(b.size for b in self.blocks))

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "K": self.partition.n_clusters,
            "clusters": [c.tolist() for c in self.partition.clusters],
            "blocks": [b.tolist() for b in self.blocks],
            "row_normalized": self.row_normalized,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PseudoCooc":
        """Parse to_json output; a malformed payload is a ValueError."""
        payload = json.loads(text)
        d, clusters = check_partition_payload(payload, "co-occurrence")
        if "blocks" not in payload:
            raise ValueError("co-occurrence file lacks blocks")
        blocks = _block_list(payload["blocks"])
        part = FeaturePartition.from_clusters(d, clusters)
        return cls(part, blocks, row_normalized=bool(payload.get("row_normalized", False)))


def _block_list(items) -> list[np.ndarray]:
    """A JSON list of 2-D numeric arrays, or a ValueError."""
    if not isinstance(items, list):
        raise ValueError("co-occurrence blocks must be a list")
    out = []
    for k, item in enumerate(items):
        try:
            arr = np.asarray(item, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"co-occurrence block {k} is not numeric or ragged") from None
        if arr.ndim != 2:
            raise ValueError(
                f"co-occurrence block {k} must be 2-D, got shape {arr.shape}"
            )
        out.append(arr)
    return out


def save_cooc(c: PseudoCooc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(c.to_json())
        fh.write("\n")


def load_cooc(path: str) -> PseudoCooc:
    with open(path, "r", encoding="utf-8") as fh:
        return PseudoCooc.from_json(fh.read())


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
    offset_of = np.empty(part.d, dtype=np.int64)
    for cluster in part.clusters:
        offset_of[cluster] = np.arange(cluster.shape[0])
    kernels.cooc_accumulate(
        feats.indptr, feats.indices, feats.values,
        part.cluster_of, offset_of, block_start[:-1], sizes, flat,
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
