"""Read and write the sparse multi-label text format, dataset statistics,
and the .npz archives that hold partitions, models, co-occurrence blocks and
predictions.

Format: a header line ``n d L``, then one line per point of the form
``l1,l2,... f1:v1 f2:v2 ...`` with zero-based indices. The label field may be
empty (line starts with a space). Feature values lie in [0, 2**64]
(sparse.MAX_VALUE); duplicate indices within a line are rejected rather than
summed. The writer refuses a dataset holding a value the parser would reject,
so every file written here reads back.

Text is parsed in chunks of lines, on the UTF-8 bytes of each chunk:
scan_lines finds the separators, commas, colons and dots by byte compares,
and every check runs on arrays. kernels.parse_ints converts the labels and
indices of 1 to 18 ASCII digits, and kernels.parse_floats the values of the
form digits[.digits] with 1 to 19 digits, where x87 extended precision makes
that exact (kernels.EXACT_FLOATS). Every other token (a sign, an exponent,
more digits) is decoded and converted by one numpy call per kind, so each
value is int() or float() of its text. A
malformed file still fails with a ParseError naming the first faulty line
and its fault, as a line-by-line parser would report it. Writing formats a
chunk of rows at a time into one NUL-padded byte matrix (join_lines), each
token written once into its row: integer digits eight per uint64 by SWAR
(kernels._eight_digits), and floats by kernels.format_floats, through a
view of the matrix, or repr() where it cannot; the bytes are those of
formatting value by value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import zipfile
import zlib
from dataclasses import dataclass
from typing import IO, NamedTuple, NoReturn

import numpy as np

from . import kernels
from .errors import ParseError
from .sparse import MAX_VALUE, SparseMatrix


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
_PARSE_CHUNK_CHARS = 1 << 17
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


class Scan(NamedTuple):
    """A chunk of lines split at its separators, as scan_lines finds them."""

    raw: bytes  # the chunk's UTF-8 bytes, ending in a newline
    buf: np.ndarray  # raw as uint8, trailing carriage returns turned into spaces
    at: np.ndarray  # where each newline, space, comma, dot and colon is, ascending
    kind: np.ndarray  # the byte at each of them
    cuts: np.ndarray  # the index into at of each piece's end
    before: np.ndarray  # the index into at of the split before each piece, or -1
    row: np.ndarray  # the line of each piece
    opens: np.ndarray  # whether each piece starts its line
    filled: np.ndarray  # whether each piece holds a byte

    def start(self, split: np.ndarray) -> np.ndarray:
        """Where the text after each index into at begins: split -1 is the
        chunk's start."""
        return np.where(split >= 0, self.at[split] + 1, 0)


def scan_lines(lines: list[str]) -> Scan:
    """Split a chunk of lines, read as UTF-8 bytes, at its separators.

    Newlines end lines, and spaces and a line's trailing carriage returns end
    pieces; inside a piece, commas split labels, a colon splits an index from
    its value and a dot splits a value's digits. One byte compare per
    separator finds them all.
    """
    raw = "".join(lines).encode("utf-8", "surrogatepass")
    if not raw.endswith(b"\n"):  # the last line of the file
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    if b"\r" in raw:
        # a line's trailing carriage returns (rstrip("\r")) end tokens as
        # spaces do
        buf = buf.copy()
        back = np.flatnonzero(buf == 10) - 1
        while (back := back[buf[back] == 13]).shape[0]:
            buf[back] = 32
            back -= 1
    split = (buf == 10) | (buf == 32)
    for mark in b",.:":
        split |= buf == mark
    at = np.flatnonzero(split)
    kind = buf[at]
    cuts = np.flatnonzero((kind == 10) | (kind == 32))  # each piece's end
    before = np.concatenate(([-1], cuts[:-1]))
    opens = np.concatenate(([True], kind[before[1:]] == 10))
    filled = np.diff(at[cuts], prepend=-1) > 1
    row = np.cumsum(opens) - 1
    if row[-1] + 1 < len(lines):
        # a stream that splits lines at a lone carriage return: end each
        # line with a newline
        return scan_lines([line if line.endswith("\n") else line + "\n"
                           for line in lines])
    return Scan(raw, buf, at, kind, cuts, before, row, opens, filled)


def convert_tokens(
    raw: bytes, buf: np.ndarray, dtype, kernel, starts: np.ndarray, ends: np.ndarray,
    *more
) -> tuple[np.ndarray, int]:
    """(values, first): the tokens raw[starts[i]:ends[i]] of a Scan's raw
    and buf converted to dtype, and the index of the first token that does
    not convert, or -1.

    The kernel converts what it can from the bytes; numpy converts the rest
    from their text, as int() and float() would, in one call.
    """
    values, done = kernel(buf, starts, ends, *more)
    rest = np.flatnonzero(~done)
    if not rest.shape[0]:
        return values, -1
    tokens = [raw[s:e].decode("utf-8", "surrogatepass")
              for s, e in zip(starts[rest].tolist(), ends[rest].tolist())]
    try:
        values[rest] = np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        for t, token in enumerate(tokens):
            try:
                np.array(token, dtype=dtype)
            except (ValueError, OverflowError):
                return values, int(rest[t])
        raise
    return values, -1


def _parse_chunk(
    lines: list[str], lineno: int, d: int, n_labels: int, shift: int
) -> tuple[np.ndarray, ...]:
    """Features per row, indices, values, labels per row and labels of lines.

    lineno is the line number of lines[0]. The chunk is read as UTF-8 bytes:
    scan_lines finds the tokens, the kernels convert the numbers written in
    ASCII digits, and numpy converts the rest, one call per kind. Array
    checks find the first faulty row; only that row is read again token by
    token, to name its fault.
    """

    def fail(row: int) -> NoReturn:
        # lines[row] is faulty, but an earlier line may hold a fault that the
        # check which found row does not look for: parse those lines first
        if row:
            _parse_chunk(lines[:row], lineno, d, n_labels, shift)
        raise ParseError(_line_fault(lines[row], d, n_labels, shift),
                         line=lineno + row)

    m = len(lines)
    scan = scan_lines(lines)
    raw, buf, at, kind = scan.raw, scan.buf, scan.at, scan.kind
    # the label field is a line's first piece; the other pieces, with empty
    # ones skipped, are its feature tokens
    label = np.flatnonzero(scan.opens & scan.filled)
    token = np.flatnonzero(~scan.opens & scan.filled)
    # labels: "l1,l2,..." per row, possibly empty, split at every comma: a
    # label ends at a comma or at the field's end
    split = kernels.concat_ranges(scan.before[label] + 1, scan.cuts[label] + 1)
    label_row = np.repeat(scan.row[label], scan.cuts[label] - scan.before[label])
    # features: "index:value" tokens, whose first split is the colon and
    # whose second, if any, a dot in the value
    first, last = scan.before[token] + 1, scan.cuts[token]
    token_row = scan.row[token]
    heads = np.concatenate((split, first))  # where each label and index ends
    head_starts = scan.start(heads - 1)
    # the pieces are done with: scratch is freed as soon as it is used, so
    # that little of it is held while the numbers convert
    del scan, label, token
    label_counts = np.bincount(label_row, minlength=m)
    second = np.minimum(first + 1, last)
    dotted = last - first == 2
    # any other split makes its line faulty: a colon or dot in a label field
    # or an index, no colon or a second one, a comma or a second dot
    inner = kind[split]
    ill_labels = (inner == 58) | (inner == 46)
    ill_tokens = ((kind[first] != 58) | (last - first > 2)
                  | dotted & (kind[second] != 46))
    if ill_labels.any() or ill_tokens.any():
        fail(int(min(label_row[ill_labels].min(initial=m),
                     token_row[ill_tokens].min(initial=m))))
    del kind, inner, ill_labels, ill_tokens

    heads = at[heads]
    dots = np.where(dotted, at[second], -1)
    del second, dotted
    first, last = at[first] + 1, at[last]
    del at
    ints, bad = convert_tokens(raw, buf, np.int64, kernels.parse_ints, head_starts, heads)
    del head_starts, heads
    if bad >= 0:
        fail(int(np.concatenate((label_row, token_row))[bad]))
    if shift:
        ints -= shift
    # a copy: the chunk's labels must not hold on to its indices
    labels, idx = ints[:split.shape[0]].copy(), ints[split.shape[0]:]
    val, bad = convert_tokens(raw, buf, np.float64, kernels.parse_floats, first, last, dots)
    del first, last, dots
    if bad >= 0:
        fail(int(token_row[bad]))

    bad = np.zeros(m, dtype=bool)
    bad[label_row[(labels < 0) | (labels >= n_labels)]] = True
    # a value the kernels convert has at most 19 digits and no exponent, so
    # only the fallback's values (NaN too) fail the compare with MAX_VALUE
    bad[token_row[(idx < 0) | (idx >= d) | (val < 0) | ~(val <= MAX_VALUE)]] = True
    label_row, labels, repeated = _by_row(label_row, labels)
    bad[repeated] = True
    token_row, idx, val, repeated = _by_row(token_row, idx, val)
    bad[repeated] = True
    if bad.any():
        fail(int(np.argmax(bad)))

    keep = val != 0.0
    return (np.bincount(token_row[keep], minlength=m), idx[keep], val[keep],
            label_counts, labels)


def _by_row(row: np.ndarray, key: np.ndarray, *more: np.ndarray) -> tuple:
    """row, key and more ordered by row, then key, ties in position order,
    and the rows that hold a key twice; row is nondecreasing.

    Rows whose keys already rise need no sort and hold no key twice.
    """
    if np.all((key[1:] > key[:-1]) | (row[1:] != row[:-1])):
        return row, key, *more, row[:0]
    order = kernels.group_order(row, key)
    row, key = row[order], key[order]
    twice = row[1:][(key[1:] == key[:-1]) & (row[1:] == row[:-1])]
    return (row, key, *(a[order] for a in more), twice)


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
        if v > MAX_VALUE:
            return f"feature value {tail!r} above 2**64"
    # every label and token passed: the array checks found a repeated index
    return "duplicate feature index"


def load_xc(path: str, one_based: bool = False) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_xc(fh, one_based=one_based)


def write_xc(ds: Dataset, stream: IO[str] | None = None) -> str | None:
    """Inverse of parse_xc; values printed at full round-trip precision. A
    value parse_xc would reject is a ValueError, raised before any write."""
    _check_writable(ds)
    return _write(ds, stream)


def _check_writable(ds: Dataset) -> None:
    """ValueError naming the first row of ds that holds NaN or a value
    above MAX_VALUE: one compare, as a Dataset holds no negative value."""
    ok = ds.features.values <= MAX_VALUE
    if not ok.all():
        at = int(np.argmin(ok))
        row = int(np.searchsorted(ds.features.indptr, at, side="right")) - 1
        raise ValueError(f"row {row}: feature value {float(ds.features.values[at])!r} "
                         "lies outside [0, 2**64], the range of a dataset file")


def _write(ds: Dataset, stream: IO[str] | None) -> str | None:
    out = stream if stream is not None else io.StringIO()
    out.write(f"{ds.n} {ds.d} {ds.n_labels}\n")
    feats, labels = ds.features, ds.labels
    # rows lo..hi-1 hold at most _WRITE_CHUNK_NNZ entries, or are one row
    for lo, hi in kernels.chunk_ranges(feats.indptr + labels.indptr, _WRITE_CHUNK_NNZ):
        out.write(_format_rows(feats, labels, lo, hi))
    if stream is None:
        return out.getvalue()
    return None


def _format_rows(feats: SparseMatrix, labels: SparseMatrix, lo: int, hi: int) -> str:
    """Lines lo..hi-1 of the text format, each ending in a newline: the
    labels joined by commas, then a space and index:value per feature."""
    ls, le, fs, fe = labels.indptr[[lo, hi]].tolist() + feats.indptr[[lo, hi]].tolist()
    return join_lines([
        (np.diff(labels.indptr[lo:hi + 1]), labels.indices[ls:le], None, 44, 0),
        (np.diff(feats.indptr[lo:hi + 1]), feats.indices[fs:fe], feats.values[fs:fe], 32, 32),
    ])


def join_lines(parts: list[tuple]) -> str:
    """The text of lines of tokens, each line ending in a newline. parts
    holds (counts, ints, floats, lead, first) tuples: line i holds counts[i]
    tokens of each part, part by part, and a token is the byte lead (first
    for the line's first token of the part; 0 is none), str() of ints[j],
    which is non-negative (a label id or a feature index), and, where floats
    is not None, ':' and repr() of floats[j].

    Each token is written once, field by field, into its row of one
    NUL-padded byte matrix, whose last column holds each line's newline (an
    empty line has a row of its own); the NULs are dropped at once.
    Integer digits come from kernels._eight_digits, and floats from
    kernels.format_floats, or repr() where it cannot.
    """
    counts = [part[0] for part in parts]
    per_line = sum(counts)
    rows = np.maximum(per_line, 1)
    starts = np.cumsum(rows) - rows  # each line's first row
    # a token row: lead, the digits, and ':' with the 24 columns of a float
    widths = [1 + _digit_count(ints)
              + (0 if floats is None else 1 + kernels._FLOAT_CHARS)
              for _, ints, floats, *_ in parts]
    text = np.zeros((int(rows.sum()), max(widths) + 1), dtype=np.uint8)
    text[starts + rows - 1, -1] = 10
    for (count, ints, floats, lead, first), width in zip(parts, widths):
        # the rows of each line's tokens, after those of the parts before
        at = np.repeat(starts - (np.cumsum(count) - count), count)
        at += np.arange(ints.shape[0])
        into = np.zeros((ints.shape[0], width), dtype=np.uint8)
        _write_tokens(into, ints, floats, lead)
        into[(np.cumsum(count) - count)[count > 0], 0] = first
        text[at, :width] = into
        starts += count
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _digit_count(ints: np.ndarray) -> int:
    """The digits of the largest of the non-negative ints (1 for none)."""
    return len(str(int(ints.max(initial=0))))


def _write_tokens(into: np.ndarray, ints: np.ndarray, floats: np.ndarray | None,
                  lead: int) -> None:
    """Write one token per row of the zeroed byte matrix into: the byte
    lead, str() of the non-negative ints[j] and, where floats is given, ':'
    and repr() of floats[j]."""
    k, n = ints.shape[0], _digit_count(ints)
    into[:, 0] = lead
    size = ints.astype(np.uint64)
    # eight digits per uint64, by SWAR; the leading zeros of the 8 * words
    # digits, those before the last count, stay NULs
    words = -(-n // 8)
    digits = np.empty((k, words), dtype=np.uint64)
    rest = size
    for j in range(words - 1, 0, -1):
        high = rest // kernels._U64_POW10[8]
        digits[:, j] = rest - high * kernels._U64_POW10[8]
        rest = high
    digits[:, 0] = rest
    count = sum((size >= power for power in kernels._U64_POW10[1:n]), np.ones(k, np.int64))
    skip = np.clip(8 * np.arange(words, 0, -1) - count[:, None], 0, 8).astype(np.uint64)
    kernels._eight_digits(digits, np.uint64(kernels._ZEROS) << 8 * skip)
    into[:, 1:1 + n] = digits.view(np.uint8)[:, 8 * words - n:]
    if floats is None:
        return
    into[:, 1 + n] = 58
    chars, ok = kernels.format_floats(floats, into[:, 2 + n:2 + n + kernels._FLOAT_CHARS])
    rest = np.flatnonzero(~ok)
    if rest.shape[0]:
        text = np.array([repr(v) for v in floats[rest].tolist()],
                        dtype=f"S{kernels._FLOAT_CHARS}")
        chars[rest] = text.view(np.uint8).reshape(-1, kernels._FLOAT_CHARS)


def save_xc(ds: Dataset, path: str) -> None:
    """write_xc to path, which is opened only once ds passes the check."""
    _check_writable(ds)
    with open(path, "w", encoding="utf-8") as fh:
        _write(ds, fh)


def stats(ds: Dataset) -> DatasetStats:
    """Per-dataset size and density summary."""
    n = ds.n
    avg_f = float(ds.features.nnz) / n if n else 0.0
    avg_l = float(ds.labels.nnz) / n if n else 0.0
    return DatasetStats(n=n, d=ds.d, n_labels=ds.n_labels,
                        avg_nnz_features=avg_f, avg_labels=avg_l)


_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")  # a zip with members, an empty zip
_KIND_NAMES = {"f": "float", "iu": "integer", "b": "boolean", "U": "text"}


@contextlib.contextmanager
def _binary(file, mode: str, what: str):
    """file as a binary stream: a path opened in mode, an open text file's
    binary buffer (flushed first), or an open binary file as it is. A text
    stream without a buffer, such as io.StringIO, is a TypeError."""
    if isinstance(file, (str, os.PathLike)):
        with open(file, mode) as fh:
            yield fh
        return
    if isinstance(file, io.TextIOBase):
        if not hasattr(file, "buffer"):
            raise TypeError(f"{what} files are binary .npz archives: "
                            f"{type(file).__name__} has no binary buffer")
        file.flush()
        file = file.buffer
    yield file


def save_arrays(file, arrays: dict[str, np.ndarray], what: str) -> None:
    """Write arrays as an uncompressed .npz archive to file: a path, written
    at exactly that name (np.savez given a name would append ".npz" to it),
    or an open file (see _binary)."""
    with _binary(file, "wb", what) as fh:
        np.savez(fh, **arrays)


def load_arrays(
    file, what: str, spec: dict[str, tuple[str, int]], earlier: str = "JSON"
) -> dict[str, np.ndarray]:
    """The arrays named in spec from an .npz archive written by save_arrays,
    read from a path or an open file (see _binary).

    spec maps each name to its dtype kinds (numpy kind letters, e.g. "iu")
    and its number of dimensions. The format is told from the content, not
    the file name. A file that is not a readable archive (such as a file in
    the earlier format that earlier names, a truncated file or pickled
    objects), a missing array, or an array of another kind or dimension is a
    ValueError whose message begins with what.
    """
    with _binary(file, "rb", what) as fh:
        head = fh.read(4)
        if head not in _ZIP_MAGIC:
            raise ValueError(
                f"{what} file is not an .npz archive ({earlier} {what} files of "
                "earlier versions are no longer read)"
            )
        fh.seek(-len(head), os.SEEK_CUR)
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
