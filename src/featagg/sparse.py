"""Sparse vector/matrix primitives shared by every other module.

Vectors are sorted (index, value) pairs over an explicit ambient dimension;
matrices are row-oriented CSR triples. Values are float64 throughout and
stored zeros are stripped at construction, so nnz counts are exact. Instances
are immutable by convention and safe to share across workers.
Validated values lie within +-MAX_VALUE; validate=False means the caller
vouches for what validate=True checks.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Iterable, Mapping

import numpy as np

from . import kernels

# B = 2**64, the largest magnitude of a value anywhere in the pipeline: within
# it every intermediate stays finite (see the README).
MAX_VALUE = 2.0 ** 64


def _value_eq(self, other) -> bool:
    """Equality by value for a dataclass (its fields, compare=False skipped) or
    a __slots__ class (slots named with a leading underscore, which hold
    caches, skipped): arrays compare with np.array_equal, the rest with ==."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = ([f.name for f in fields(self) if f.compare] if is_dataclass(self)
             else [name for name in self.__slots__ if not name.startswith("_")])
    pairs = ((getattr(self, name), getattr(other, name)) for name in names)
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
               else a == b for a, b in pairs)


def _check_entries(cols, indptr, indices, values) -> None:
    """ValueError unless every row's column indices lie in [0, cols) and
    strictly increase, and every value lies in [-MAX_VALUE, MAX_VALUE]."""
    if np.any(indices < 0) or np.any(indices >= cols):
        raise ValueError("column index out of range")
    if indices.size > 1:
        row_start = np.zeros(indices.shape[0], dtype=bool)
        starts = indptr[:-1]
        row_start[starts[starts < indices.shape[0]]] = True
        if np.any((np.diff(indices) <= 0) & ~row_start[1:]):
            raise ValueError("row indices must be strictly increasing")
    if not np.all(np.abs(values) <= MAX_VALUE):  # NaN fails the compare too
        raise ValueError("values must be finite and within 2**64 in magnitude")


class SparseVec:
    """Sorted sparse vector with an explicit dimension."""

    __slots__ = ("dim", "indices", "values")

    def __init__(
        self,
        dim: int,
        indices: Iterable[int] = (),
        values: Iterable[float] = (),
        *,
        validate: bool = True,
    ):
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if validate:
            if dim < 0:
                raise ValueError("dim must be nonnegative")
            if idx.shape != val.shape or idx.ndim != 1:
                raise ValueError("indices and values must be matching 1-d sequences")
            # the checks of a one-row SparseMatrix; stored zeros are dropped
            _check_entries(dim, np.array([0, idx.shape[0]]), idx, val)
            keep = val != 0.0
            if not keep.all():
                idx, val = idx[keep], val[keep]
        self.dim = int(dim)
        self.indices = idx
        self.values = val

    @classmethod
    def from_pairs(cls, dim: int, pairs: Mapping[int, float]) -> "SparseVec":
        items = sorted(pairs.items())
        return cls(dim, [i for i, _ in items], [v for _, v in items])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseVec":
        dense = np.asarray(dense, dtype=np.float64)
        idx = np.flatnonzero(dense)
        return cls(dense.shape[0], idx, dense[idx], validate=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    __eq__ = _value_eq

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{i}:{v:g}" for i, v in zip(self.indices[:6], self.values[:6])
        )
        tail = ", ..." if self.nnz > 6 else ""
        return f"SparseVec(dim={self.dim}, {{{pairs}{tail}}})"


def dot(a: SparseVec, b: SparseVec) -> float:
    """Dot product by merge over sorted indices."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    common, ia, ib = np.intersect1d(
        a.indices, b.indices, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return 0.0
    return float(np.dot(a.values[ia], b.values[ib]))


def norm(v: SparseVec, p: int = 2) -> float:
    """L1 or L2 norm over stored entries; the L2 norm is the square root of
    the one-row SparseMatrix.row_sq_norms."""
    if p == 1:
        return float(np.sum(np.abs(v.values)))
    if p == 2:
        return float(np.sqrt(SparseMatrix.from_rows([v]).row_sq_norms()[0]))
    raise ValueError("p must be 1 or 2")


class SparseMatrix:
    """Row-oriented sparse matrix (CSR) of float64 values."""

    __slots__ = ("rows", "cols", "indptr", "indices", "values")

    def __init__(
        self,
        rows: int,
        cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        validate: bool = True,
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if validate:
            if indptr.shape[0] != rows + 1 or indptr[0] != 0:
                raise ValueError("bad indptr")
            if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.shape[0]:
                raise ValueError("bad indptr")
            if indices.shape[0] != values.shape[0]:
                raise ValueError("indices/values length mismatch")
            _check_entries(cols, indptr, indices, values)
            if np.any(values == 0.0):
                raise ValueError("stored zeros are not allowed")
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = indptr
        self.indices = indices
        self.values = values

    @classmethod
    def from_rows(cls, row_data: list[SparseVec], cols: int | None = None) -> "SparseMatrix":
        if cols is None:
            if not row_data:
                raise ValueError("cols required for an empty matrix")
            cols = row_data[0].dim
        for r in row_data:
            if r.dim != cols:
                raise ValueError(f"row dim {r.dim} != cols {cols}")
        lens = np.array([r.nnz for r in row_data], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(lens)))
        if row_data:
            indices = np.concatenate([r.indices for r in row_data])
            values = np.concatenate([r.values for r in row_data])
        else:
            indices = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
        return cls(len(row_data), cols, indptr, indices, values, validate=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def row(self, i: int) -> SparseVec:
        s, e = self.indptr[i], self.indptr[i + 1]
        return SparseVec(self.cols, self.indices[s:e], self.values[s:e], validate=False)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every row: one segment sum, in stored order."""
        row_of = np.repeat(np.arange(self.rows), self.row_nnz())
        return np.bincount(row_of, weights=self.values * self.values,
                           minlength=self.rows).astype(np.float64, copy=False)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.float64)
        row_of = np.repeat(np.arange(self.rows), self.row_nnz())
        out[row_of, self.indices] = self.values
        return out

    def transpose(self) -> "SparseMatrix":
        t_indptr, t_indices, t_values = kernels.transpose_csr(
            self.indptr, self.indices, self.values, self.rows, self.cols
        )
        return SparseMatrix(
            self.cols, self.rows, t_indptr, t_indices, t_values, validate=False
        )

    def slice_rows(self, lo: int, hi: int) -> "SparseMatrix":
        """Rows lo..hi-1, sharing this matrix's index and value arrays."""
        s, e = self.indptr[lo], self.indptr[hi]
        return SparseMatrix(
            hi - lo, self.cols, self.indptr[lo:hi + 1] - s, self.indices[s:e],
            self.values[s:e], validate=False,
        )

    def take_rows(self, rows: np.ndarray) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        sub_indptr, sub_indices, sub_values = kernels.take_rows(
            self.indptr, self.indices, self.values, rows
        )
        return SparseMatrix(
            rows.shape[0], self.cols, sub_indptr, sub_indices, sub_values, validate=False
        )

    __eq__ = _value_eq

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
