"""Read and write the sparse multi-label text format, dataset statistics,
and the .npz archives that hold partitions, models and co-occurrence blocks.

Format: a header line ``n d L``, then one line per point of the form
``l1,l2,... f1:v1 f2:v2 ...`` with zero-based indices. The label field may be
empty (line starts with a space). Feature values must be nonnegative;
duplicate indices within a line are rejected rather than summed.

Text is parsed in chunks of lines: the tokens of a chunk are split once and
converted by one numpy call per kind, and every check runs on arrays. A
malformed file still fails with a ParseError naming the first faulty line and
its fault, as a line-by-line parser would report it. Writing formats a chunk
of rows at a time and prints the same bytes as formatting value by value.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import IO, NoReturn

import numpy as np

from .errors import ParseError
from .kernels import chunk_ranges, group_order
from .sparse import SparseMatrix


@dataclass(frozen=True)
class Dataset:
    """n points with nonnegative sparse features and binary sparse labels."""

    features: SparseMatrix
    labels: SparseMatrix

    def __post_init__(self):
        if self.features.rows != self.labels.rows:
            raise ValueError(
                f"features has {self.features.rows} rows, labels {self.labels.rows}"
            )
        if self.features.values.size and np.any(self.features.values < 0):
            raise ValueError("feature values must be nonnegative")
        if self.labels.values.size and np.any(self.labels.values != 1.0):
            raise ValueError("label values must all equal 1")

    @property
    def n(self) -> int:
        return self.features.rows

    @property
    def d(self) -> int:
        return self.features.cols

    @property
    def n_labels(self) -> int:
        return self.labels.cols


@dataclass(frozen=True)
class DatasetStats:
    n: int
    d: int
    n_labels: int
    avg_nnz_features: float
    avg_labels: float


# Text is parsed and written in chunks, so that per-token scratch stays
# bounded whatever the number of rows: parse_xc reads whole lines up to this
# many characters (at least one line) ...
_PARSE_CHUNK_CHARS = 1 << 16
# ... and write_xc formats rows up to this many stored features plus labels
# (at least one row).
_WRITE_CHUNK_NNZ = 1 << 14


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

    chunks: list[tuple[np.ndarray, ...]] = []
    done = 0
    surplus: list[str] = []
    while done < n:
        lines = stream.readlines(_PARSE_CHUNK_CHARS)
        if not lines:
            raise ParseError(f"expected {n} data lines, found {done}", line=done + 2)
        if len(lines) > n - done:
            surplus = lines[n - done:]
            del lines[n - done:]
        chunks.append(_parse_chunk(lines, done + 2, d, n_labels, shift))
        done += len(lines)

    rest = "".join(surplus) + stream.read()
    if rest.strip():
        raise ParseError("trailing content after the declared number of points",
                         line=n + 2)

    if chunks:
        f_counts, f_idx, f_val, l_counts, l_idx = map(np.concatenate, zip(*chunks))
    else:
        f_counts = f_idx = l_counts = l_idx = np.empty(0, dtype=np.int64)
        f_val = np.empty(0, dtype=np.float64)
    features = SparseMatrix(
        n, d, np.concatenate(([0], np.cumsum(f_counts))), f_idx, f_val,
        validate=False,
    )
    labels_m = SparseMatrix(
        n, n_labels, np.concatenate(([0], np.cumsum(l_counts))), l_idx,
        np.ones(l_idx.shape[0], dtype=np.float64), validate=False,
    )
    return Dataset(features, labels_m)


def _parse_chunk(
    lines: list[str], lineno: int, d: int, n_labels: int, shift: int
) -> tuple[np.ndarray, ...]:
    """Features per row, indices, values, labels per row and labels of lines.

    lineno is the line number of lines[0]. All tokens of the chunk are split
    and converted at once, and array checks find the first faulty row; only
    that row is read again token by token, to name its fault.
    """

    def fail(row: int) -> NoReturn:
        # lines[row] is faulty, but an earlier line may hold a fault that the
        # check which found row does not look for: parse those lines first
        if row:
            _parse_chunk(lines[:row], lineno, d, n_labels, shift)
        raise ParseError(_line_fault(lines[row], d, n_labels, shift),
                         line=lineno + row)

    def convert(tokens: list[str], dtype, token_row: np.ndarray) -> np.ndarray:
        try:
            return np.array(tokens, dtype=dtype)
        except (ValueError, OverflowError):
            for t, token in enumerate(tokens):
                try:
                    np.array(token, dtype=dtype)
                except (ValueError, OverflowError):
                    fail(int(token_row[t]))
            raise

    m = len(lines)
    rows = np.arange(m)
    fields = [line.rstrip("\n").rstrip("\r").partition(" ") for line in lines]

    # labels: "l1,l2,..." per row, possibly empty
    label_fields = [f[0] for f in fields]
    label_counts = np.array(
        [f.count(",") + 1 if f else 0 for f in label_fields], dtype=np.int64
    )
    label_row = np.repeat(rows, label_counts)
    label_tokens = (",".join(filter(None, label_fields)).split(",")
                    if label_row.size else [])
    labels = convert(label_tokens, np.int64, label_row) - shift

    # features: "index:value" tokens split on single spaces, empty ones skipped
    feature_fields = [f[2] for f in fields]
    pieces = " ".join(feature_fields).split(" ")
    piece_row = np.repeat(rows, [f.count(" ") + 1 for f in feature_fields])
    tokens = list(filter(None, pieces))
    token_row = piece_row
    if len(tokens) < len(pieces):
        lengths = np.fromiter(map(len, pieces), np.int64, len(pieces))
        token_row = piece_row[lengths > 0]
    colons = np.fromiter(map(str.count, tokens, repeat(":")), np.int64, len(tokens))
    if np.any(colons != 1):
        fail(int(token_row[np.argmax(colons != 1)]))
    halves = ":".join(tokens).split(":") if tokens else []
    idx = convert(halves[0::2], np.int64, token_row) - shift
    val = convert(halves[1::2], np.float64, token_row)

    bad = np.zeros(m, dtype=bool)
    bad[label_row[(labels < 0) | (labels >= n_labels)]] = True
    bad[token_row[(idx < 0) | (idx >= d) | (val < 0) | ~np.isfinite(val)]] = True
    order = group_order(label_row, labels)
    labels, label_row = labels[order], label_row[order]
    bad[_repeats(label_row, labels)] = True
    order = group_order(token_row, idx)
    idx, val, token_row = idx[order], val[order], token_row[order]
    bad[_repeats(token_row, idx)] = True
    if bad.any():
        fail(int(np.argmax(bad)))

    keep = val != 0.0
    return (np.bincount(token_row[keep], minlength=m), idx[keep], val[keep],
            label_counts, labels)


def _repeats(row: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rows holding a key twice, given (row, key) pairs sorted by row, key."""
    return row[1:][(key[1:] == key[:-1]) & (row[1:] == row[:-1])]


def _line_fault(line: str, d: int, n_labels: int, shift: int) -> str:
    """The first fault of a line that the array checks found faulty."""
    fields = line.rstrip("\n").rstrip("\r").split(" ")
    label_field = fields[0]
    if label_field:
        try:
            labels = [int(t) - shift for t in label_field.split(",")]
        except ValueError:
            return f"bad label field {label_field!r}"
        if min(labels) < 0 or max(labels) >= n_labels:
            return f"label index out of range [0, {n_labels})"
        if len(set(labels)) < len(labels):
            return "duplicate label index"
    for tok in fields[1:]:
        if not tok:
            continue
        head, sep, tail = tok.partition(":")
        if not sep:
            return f"expected 'index:value', got {tok!r}"
        try:
            j = int(head) - shift
            v = float(tail)
        except ValueError:
            return f"non-numeric token {tok!r}"
        if j < 0 or j >= d:
            return f"feature index {j} out of range [0, {d})"
        if v < 0:
            return f"negative feature value {v}"
        if not math.isfinite(v):
            return f"non-finite feature value {tail!r}"
    # every label and token passed: the array checks found a repeated index
    return "duplicate feature index"


def load_xc(path: str, one_based: bool = False) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_xc(fh, one_based=one_based)


def write_xc(ds: Dataset, stream: IO[str] | None = None) -> str | None:
    """Inverse of parse_xc; values printed at full round-trip precision."""
    out = stream if stream is not None else io.StringIO()
    out.write(f"{ds.n} {ds.d} {ds.n_labels}\n")
    feats, labels = ds.features, ds.labels
    # rows lo..hi-1 hold at most _WRITE_CHUNK_NNZ entries, or are one row
    for lo, hi in chunk_ranges(feats.indptr + labels.indptr, _WRITE_CHUNK_NNZ):
        out.write(_format_rows(feats, labels, lo, hi))
    if stream is None:
        return out.getvalue()
    return None


def _format_rows(feats: SparseMatrix, labels: SparseMatrix, lo: int, hi: int) -> str:
    """Lines lo..hi-1 of the text format, each ending in a newline."""
    fp = (feats.indptr[lo:hi + 1] - feats.indptr[lo]).tolist()
    lp = (labels.indptr[lo:hi + 1] - labels.indptr[lo]).tolist()
    # repr of a list prints each number as str() of an int and repr() of a
    # float do, separated by ", "; no number prints a NUL
    idx = repr(feats.indices[feats.indptr[lo]:feats.indptr[hi]].tolist())[1:-1]
    val = repr(feats.values[feats.indptr[lo]:feats.indptr[hi]].tolist())[1:-1]
    lab = repr(labels.indices[labels.indptr[lo]:labels.indptr[hi]].tolist())[1:-1]
    # " j:" and "v" strings alternate: token t of the chunk is parts[2t:2t+2]
    parts = [""] * (2 * fp[-1])
    if fp[-1]:
        parts[0::2] = (" " + idx.replace(", ", ":\0 ") + ":").split("\0")
        parts[1::2] = val.split(", ")
    lab = lab.split(", ") if lp[-1] else []
    lines = [
        ",".join(lab[lp[i]:lp[i + 1]]) + "".join(parts[2 * fp[i]:2 * fp[i + 1]])
        for i in range(hi - lo)
    ]
    lines.append("")
    return "\n".join(lines)


def save_xc(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_xc(ds, fh)


def stats(ds: Dataset) -> DatasetStats:
    """Per-dataset size and density summary."""
    n = ds.n
    avg_f = float(ds.features.nnz) / n if n else 0.0
    avg_l = float(ds.labels.nnz) / n if n else 0.0
    return DatasetStats(n=n, d=ds.d, n_labels=ds.n_labels,
                        avg_nnz_features=avg_f, avg_labels=avg_l)


_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")  # a zip with members, an empty zip
_KIND_NAMES = {"f": "float", "iu": "integer", "b": "boolean", "U": "text"}


def save_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays as an uncompressed .npz archive at exactly path.

    np.savez given a file name would append ".npz" to it; an open handle
    keeps the name the caller chose.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_arrays(
    path: str, what: str, spec: dict[str, tuple[str, int]], earlier: str = "JSON"
) -> dict[str, np.ndarray]:
    """The arrays named in spec from an .npz archive written by save_arrays.

    spec maps each name to its dtype kinds (numpy kind letters, e.g. "iu")
    and its number of dimensions. The format is told from the content, not
    the file name. A file that is not a readable archive (such as a file in
    the earlier format that earlier names, a truncated file or pickled
    objects), a missing array, or an array of another kind or dimension is a
    ValueError whose message begins with what.
    """
    with open(path, "rb") as fh:
        if fh.read(4) not in _ZIP_MAGIC:
            raise ValueError(
                f"{what} file is not an .npz archive ({earlier} {what} files of "
                "earlier versions are no longer read)"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in spec if name in npz.files}
        except (zipfile.BadZipFile, EOFError, zlib.error, ValueError) as exc:
            raise ValueError(
                f"{what} file is not a readable .npz archive: {exc}"
            ) from None
    missing = [name for name in spec if name not in arrays]
    if missing:
        raise ValueError(f"{what} file lacks {', '.join(missing)}")
    for name, (kinds, ndim) in spec.items():
        a = arrays[name]
        if a.dtype.kind not in kinds or a.ndim != ndim:
            raise ValueError(
                f"{what} {name} must be a {ndim}-D {_KIND_NAMES[kinds]} array, "
                f"got {a.dtype} with shape {a.shape}"
            )
    return arrays


def json_text(obj) -> np.ndarray:
    """obj as JSON text in a 0-D array, the way an archive stores settings."""
    return np.array(json.dumps(obj))


def json_object(text: np.ndarray, what: str) -> dict:
    """The JSON object held by a 0-D text array from json_text; other text is
    a ValueError whose message begins with what."""
    try:
        obj = json.loads(str(text))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj
