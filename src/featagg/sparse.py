"""The one sparse type shared by every other module: a row-oriented CSR
matrix of float64 values, whose one-row case is a sparse vector.

Each row's column indices strictly increase and no zero is stored, so nnz
counts are exact. Instances are immutable by convention and safe to share.
Validated values lie within +-MAX_VALUE; validate=False means the caller
vouches for what validate=True checks.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Sequence

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
    def from_rows(cls, cols: int, indices: Sequence, values: Sequence) -> "SparseMatrix":
        """Matrix whose row i holds indices[i] and values[i], validated."""
        lens = [len(idx) for idx in indices]
        if [len(val) for val in values] != lens:
            raise ValueError("one value per index in every row required")
        return cls(len(lens), cols, np.concatenate(([0], np.cumsum(lens, dtype=np.int64))),
                   np.concatenate([np.empty(0, np.int64), *indices]),
                   np.concatenate([np.empty(0), *values]))

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every row: one segment sum, in stored order."""
        row_of = np.repeat(np.arange(self.rows), self.row_nnz())
        return np.bincount(row_of, weights=self.values * self.values,
                           minlength=self.rows).astype(np.float64, copy=False)

    def row_norms(self) -> tuple["SparseMatrix", np.ndarray, np.ndarray]:
        """(scaled, peak, norm): this matrix with every row whose squared norm
        is below 2**-1022, where it loses precision or underflows to 0,
        divided by its largest magnitude, its peak; the peaks (1 for every
        other row, which scaled holds as stored); and the L2 norm of every
        row of scaled. Row i's L2 norm is peak[i] * norm[i]."""
        sq = self.row_sq_norms()
        nnz = self.row_nnz()
        peak = np.ones(self.rows)
        tiny = (sq < 2.0 ** -1022) & (nnz > 0)
        if not tiny.any():
            return self, peak, np.sqrt(sq)
        # each nonempty row's segment runs to the next nonempty row's start
        top = np.maximum.reduceat(np.abs(self.values), self.indptr[:-1][nnz > 0])
        peak[tiny] = top[tiny[nnz > 0]]
        scaled = SparseMatrix(self.rows, self.cols, self.indptr, self.indices,
                              self.values / np.repeat(peak, nnz), validate=False)
        return scaled, peak, np.sqrt(scaled.row_sq_norms())

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
