"""Independent oracles shared across tests: brute-force implementations kept
deliberately separate from the library's fast paths."""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from featagg.dataio import Dataset
from featagg.sparse import SparseMatrix


def dense_mi_oracle(Z: np.ndarray, Y: np.ndarray) -> float:
    """Mutual information of the joint mass matrix, computed densely."""
    joint = Z.T @ Y
    total = joint.sum()
    joint = joint / total
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    mi = 0.0
    for j in range(joint.shape[0]):
        for l in range(joint.shape[1]):
            p = joint[j, l]
            if p > 0:
                mi += p * math.log(p / (rows[j] * cols[l]))
    return mi


def dense_cooc_oracle(X: np.ndarray, clusters: list[np.ndarray]) -> np.ndarray:
    """Full d x d block-diagonal co-occurrence matrix, materialized densely."""
    d = X.shape[1]
    C = np.zeros((d, d))
    for cluster in clusters:
        sub = X[:, cluster]
        C[np.ix_(cluster, cluster)] = sub.T @ sub
    return C


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Pair-counting ARI between two flat cluster assignments."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def balanced_partitions(members: list[int]):
    """All (plus, minus) splits with |plus| = ceil(m/2)."""
    m = len(members)
    n_plus = (m + 1) // 2
    for plus in itertools.combinations(members, n_plus):
        minus = tuple(x for x in members if x not in plus)
        yield set(plus), set(minus)


def vec(dim: int, pairs: dict[int, float]) -> SparseMatrix:
    """The sparse vector of pairs {index: value}: a one-row matrix."""
    items = sorted(pairs.items())
    return SparseMatrix.from_rows(dim, [[i for i, _ in items]], [[v for _, v in items]])


def matrix_from_dense(arr) -> SparseMatrix:
    """The nonzero entries of a 2-d array, or of a 1-d array as one row."""
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    return SparseMatrix.from_rows(arr.shape[1], [np.flatnonzero(r) for r in arr],
                                  [r[r != 0.0] for r in arr])


def label_matrix(label_sets, n_labels: int) -> SparseMatrix:
    """0/1 matrix with a row per label set."""
    rows = [sorted(labels) for labels in label_sets]
    return SparseMatrix.from_rows(n_labels, rows, [np.ones(len(r)) for r in rows])


def dataset_from_dense(features, label_sets, n_labels: int) -> Dataset:
    return Dataset(matrix_from_dense(features), label_matrix(label_sets, n_labels))


def npz_arrays(path) -> dict[str, np.ndarray]:
    """Every array of an .npz archive, by name."""
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_npz(path, arrays: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


SPOILED_KINDS = ("truncated", "pickled", "empty")


def spoil_npz(path, kind: str) -> None:
    """Replace the .npz archive at path with a file no loader may accept.

    kind is one of SPOILED_KINDS: the first half of the archive; the archive
    with every array replaced by a pickled object array; an empty file.
    """
    arrays = npz_arrays(path)
    if kind == "truncated":
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:len(data) // 2])
    elif kind == "pickled":
        write_npz(path, {k: np.array([1, "x"], dtype=object) for k in arrays})
    elif kind == "empty":
        Path(path).write_bytes(b"")
    else:
        raise ValueError(kind)
