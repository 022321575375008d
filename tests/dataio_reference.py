"""The per-line parser and writer that ``featagg.dataio`` replaced.

``parse_xc`` converts one token at a time and ``write_xc`` formats one value
at a time; both are kept unchanged as the reference that
``tests/test_dataio.py`` compares the chunked, vectorized versions with:
equal datasets, byte-equal text and the same ``ParseError`` message and line.
"""

from __future__ import annotations

import io
from typing import IO

import numpy as np

from featagg.dataio import Dataset
from featagg.errors import ParseError
from featagg.sparse import SparseMatrix


def parse_xc(stream: IO[str] | str, one_based: bool = False) -> Dataset:
    """Parse the sparse text format; raises ParseError with a line number."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = stream.readline()
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"expected header 'n d L', got {header.strip()!r}", line=1)
    try:
        n, d, n_labels = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer header field in {header.strip()!r}", line=1)
    if n < 0 or d < 0 or n_labels < 0:
        raise ParseError("header fields must be nonnegative", line=1)
    shift = 1 if one_based else 0

    f_indptr = np.zeros(n + 1, dtype=np.int64)
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    f_indices: list[np.ndarray] = []
    f_values: list[np.ndarray] = []
    l_indices: list[np.ndarray] = []

    for i in range(n):
        lineno = i + 2
        line = stream.readline()
        if line == "":
            raise ParseError(f"expected {n} data lines, found {i}", line=lineno)
        line = line.rstrip("\n").rstrip("\r")
        fields = line.split(" ")
        label_field = fields[0]
        if label_field:
            try:
                labels = np.array(
                    [int(t) - shift for t in label_field.split(",")], dtype=np.int64
                )
            except ValueError:
                raise ParseError(f"bad label field {label_field!r}", line=lineno)
            if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
                raise ParseError(
                    f"label index out of range [0, {n_labels})", line=lineno
                )
            labels = np.sort(labels)
            if labels.size > 1 and np.any(np.diff(labels) == 0):
                raise ParseError("duplicate label index", line=lineno)
        else:
            labels = np.empty(0, dtype=np.int64)

        idx_list: list[int] = []
        val_list: list[float] = []
        for tok in fields[1:]:
            if not tok:
                continue
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ParseError(f"expected 'index:value', got {tok!r}", line=lineno)
            try:
                j = int(head) - shift
                v = float(tail)
            except ValueError:
                raise ParseError(f"non-numeric token {tok!r}", line=lineno)
            if j < 0 or j >= d:
                raise ParseError(
                    f"feature index {j} out of range [0, {d})", line=lineno
                )
            if v < 0:
                raise ParseError(f"negative feature value {v}", line=lineno)
            if not np.isfinite(v):
                raise ParseError(f"non-finite feature value {tail!r}", line=lineno)
            if v > 2.0 ** 64:
                raise ParseError(f"feature value {tail!r} above 2**64", line=lineno)
            idx_list.append(j)
            val_list.append(v)
        idx = np.array(idx_list, dtype=np.int64)
        val = np.array(val_list, dtype=np.float64)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            val = val[order]
            if idx.size > 1 and np.any(np.diff(idx) == 0):
                raise ParseError("duplicate feature index", line=lineno)
            keep = val != 0.0
            idx = idx[keep]
            val = val[keep]

        f_indices.append(idx)
        f_values.append(val)
        l_indices.append(labels)
        f_indptr[i + 1] = f_indptr[i] + idx.shape[0]
        l_indptr[i + 1] = l_indptr[i] + labels.shape[0]

    rest = stream.read()
    if rest.strip():
        raise ParseError("trailing content after the declared number of points",
                         line=n + 2)

    def _cat(chunks, dtype):
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)

    features = SparseMatrix(
        n, d, f_indptr, _cat(f_indices, np.int64), _cat(f_values, np.float64),
        validate=False,
    )
    l_ind = _cat(l_indices, np.int64)
    labels_m = SparseMatrix(
        n, n_labels, l_indptr, l_ind, np.ones(l_ind.shape[0], dtype=np.float64),
        validate=False,
    )
    return Dataset(features, labels_m)


def write_xc(ds: Dataset, stream: IO[str] | None = None) -> str | None:
    """Inverse of parse_xc; values printed at full round-trip precision."""
    out = stream if stream is not None else io.StringIO()
    out.write(f"{ds.n} {ds.d} {ds.n_labels}\n")
    feats, labels = ds.features, ds.labels
    for i in range(ds.n):
        ls, le = labels.indptr[i], labels.indptr[i + 1]
        out.write(",".join(str(l) for l in labels.indices[ls:le]))
        fs, fe = feats.indptr[i], feats.indptr[i + 1]
        for j, v in zip(feats.indices[fs:fe], feats.values[fs:fe]):
            out.write(f" {j}:{float(v)!r}")
        out.write("\n")
    if stream is None:
        return out.getvalue()
    return None
