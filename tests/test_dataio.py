import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featagg import dataio, kernels, synth
from featagg.dataio import Dataset, parse_xc, stats, write_xc
from featagg.errors import ParseError
from featagg.sparse import SparseMatrix, SparseVec

import dataio_reference

class TestParse:
    def test_toy(self, toy_dataset):
        ds = toy_dataset
        assert (ds.n, ds.d, ds.n_labels) == (2, 4, 3)
        assert list(ds.labels.row(0).indices) == [0, 2]
        assert ds.features.row(0) == SparseVec.from_pairs(4, {1: 0.5, 3: 1.0})
        assert list(ds.labels.row(1).indices) == [1]
        assert ds.features.row(1) == SparseVec.from_pairs(4, {0: 2.0})

    def test_empty_label_field(self):
        ds = parse_xc("1 2 1\n 0:1\n")
        assert ds.labels.row(0).nnz == 0
        assert ds.features.row(0).nnz == 1

    def test_feature_index_out_of_bounds(self):
        with pytest.raises(ParseError, match="feature index 5"):
            parse_xc("1 2 1\n0 5:1\n")

    def test_label_index_out_of_bounds(self):
        with pytest.raises(ParseError, match="label index"):
            parse_xc("1 2 1\n1 0:1\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_xc("2 4\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_xc("1 2 1\n0 1:x\n")

    def test_negative_feature_value(self):
        with pytest.raises(ParseError, match="negative"):
            parse_xc("1 2 1\n0 1:-2\n")

    @pytest.mark.parametrize("value", ["18446744073709555712", "1e20"])
    def test_value_above_2_64(self, value):
        with pytest.raises(ParseError,
                           match=rf"line 3: feature value '{value}' above 2\*\*64"):
            parse_xc(f"2 2 1\n0 1:1\n0 0:1 1:{value}\n")

    def test_duplicate_feature_index(self):
        with pytest.raises(ParseError, match="duplicate feature"):
            parse_xc("1 3 1\n0 1:1 1:2\n")

    def test_missing_lines(self):
        with pytest.raises(ParseError, match="expected 3 data lines"):
            parse_xc("3 2 1\n0 1:1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_xc("2 2 1\n0 1:1\n0 1:-1\n")

    def test_one_based(self):
        ds = parse_xc("1 2 2\n1,2 1:3 2:4\n", one_based=True)
        assert list(ds.labels.row(0).indices) == [0, 1]
        assert list(ds.features.row(0).indices) == [0, 1]


class TestWrite:
    def test_round_trip_toy(self, toy_dataset):
        again = parse_xc(write_xc(toy_dataset))
        assert again.features == toy_dataset.features
        assert again.labels == toy_dataset.labels

    def test_empty_dataset_header_only(self):
        ds = parse_xc("0 5 2\n")
        assert write_xc(ds) == "0 5 2\n"

    def test_header_reflects_agglomerated_dim(self, toy_dataset):
        from featagg.agglomerate import agglomerate_dataset
        from featagg.tree import FeaturePartition

        part = FeaturePartition.from_clusters(4, [np.array([0, 1]), np.array([2, 3])])
        agg = agglomerate_dataset(toy_dataset, part)
        assert write_xc(agg).splitlines()[0] == "2 2 3"

    def test_full_precision_round_trip(self):
        ds = parse_xc("1 2 1\n0 0:0.1 1:0.30000000000000004\n")
        again = parse_xc(write_xc(ds))
        assert np.array_equal(again.features.values, ds.features.values)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 8))
    n_labels = draw(st.integers(1, 5))
    feat_rows, label_rows = [], []
    for _ in range(n):
        pairs = draw(
            st.dictionaries(
                st.integers(0, d - 1),
                st.floats(0.001, 50, allow_nan=False),
                max_size=d,
            )
        )
        feat_rows.append(SparseVec.from_pairs(d, pairs))
        labs = draw(st.sets(st.integers(0, n_labels - 1), max_size=n_labels))
        labs = sorted(labs)
        label_rows.append(SparseVec(n_labels, labs, np.ones(len(labs))))
    return Dataset(
        SparseMatrix.from_rows(feat_rows, d),
        SparseMatrix.from_rows(label_rows, n_labels),
    )


@settings(max_examples=60)
@given(datasets())
def test_parse_write_identity(ds):
    again = parse_xc(write_xc(ds))
    assert again.features == ds.features
    assert again.labels == ds.labels


class TestStats:
    def test_toy(self, toy_dataset):
        s = stats(toy_dataset)
        # mean stored features per point: (2 + 1) / 2
        assert s.avg_nnz_features == 1.5
        # mean labels per point: (2 + 1) / 2
        assert s.avg_labels == 1.5

    def test_all_empty_rows(self):
        s = stats(parse_xc("2 3 2\n\n\n"))
        assert s.avg_nnz_features == 0.0
        assert s.avg_labels == 0.0

    def test_empty_dataset(self):
        s = stats(parse_xc("0 3 2\n"))
        assert (s.avg_nnz_features, s.avg_labels) == (0.0, 0.0)


# --- chunked parser and writer against the per-line reference -------------

def digit_texts(n):
    """n ASCII digits, leading zeros included, with a dot among them in half."""
    return st.text("0123456789", min_size=n, max_size=n).flatmap(
        lambda s: st.one_of(st.just(s), st.integers(0, n).map(lambda at: s[:at] + "." + s[at:])))


VALUE_TEXTS = st.one_of(
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.integers(0, 99).map(str),
    # around the number kernels' limits of 8 digits a word, 18 digits an
    # integer and 19 a decimal; 20 digits above 2**64 are a fault
    st.sampled_from([8, 9, 16, 17, 19, 20]).flatmap(digit_texts).filter(
        lambda t: float(t) <= 2.0 ** 64),
    st.sampled_from([
        "0", "0.0", "-0.0", "1e-3", "2.5E2", "7.", ".5", "5.", "007", "00.250",
        "0." + "3" * 100,
        # signs, exponents and over 19 digits, which the fallback reads
        "+7", "1.5E+3", "1e+16", "0.000123456789012345678", "0" * 30 + "12.5",
        # exact midpoints of two doubles, which round to the even one
        "9007199254740993", "4503599627370496.5",
        # the largest value a file may hold: 2**64, and a text rounding to it
        "18446744073709551616", "18446744073709551617.5",
        # what float() reads past the kernels: a full-width digit, blanks
        "１", "\t1", "2\t",
    ]),
)

FAULTS = {
    "bad label field": lambda lab, toks, d, L: ("1,x", toks),
    "empty label token": lambda lab, toks, d, L: ("0,,1", toks),
    "label out of range": lambda lab, toks, d, L: (str(L + 1), toks),
    "negative label": lambda lab, toks, d, L: ("-1", toks),
    "duplicate label": lambda lab, toks, d, L: ("0,0", toks),
    "no colon": lambda lab, toks, d, L: (lab, toks + ["3"]),
    "two colons": lambda lab, toks, d, L: (lab, toks + ["1:2:3"]),
    "two colons, then none": lambda lab, toks, d, L: (lab, ["1:2:3", "4"] + toks),
    "empty index": lambda lab, toks, d, L: (lab, toks + [":1"]),
    "non-numeric value": lambda lab, toks, d, L: (lab, toks + ["0:x"]),
    "index out of range": lambda lab, toks, d, L: (lab, toks + [f"{d + 1}:1"]),
    "huge index": lambda lab, toks, d, L: (lab, toks + ["99999999999999999999:1"]),
    "negative index": lambda lab, toks, d, L: (lab, toks + ["-4:1"]),
    "negative value": lambda lab, toks, d, L: (lab, toks + ["0:-2"]),
    "infinite value": lambda lab, toks, d, L: (lab, ["0:inf"] + toks),
    "nan value": lambda lab, toks, d, L: (lab, toks + ["0:nan"]),
    # index 1 is in range in zero- and one-based files of d >= 2
    "value above 2**64": lambda lab, toks, d, L: (lab, ["1:1e308"] + toks),
    # the double after 2**64, written in 20 digits
    "value just above 2**64": lambda lab, toks, d, L: (
        lab, ["1:18446744073709555712"] + toks),
    "tab inside value": lambda lab, toks, d, L: (lab, toks + ["0:1\t5"]),
    "NUL in value": lambda lab, toks, d, L: (lab, toks + ["0:1\0"]),
    "NUL in label": lambda lab, toks, d, L: ("0\0", toks),
    "lone surrogate": lambda lab, toks, d, L: (lab, ["0:\ud800"] + toks),
    "two dots": lambda lab, toks, d, L: (lab, toks + ["0:1.2.3"]),
    "dot in index": lambda lab, toks, d, L: (lab, toks + ["1.0:1"]),
    "comma in value": lambda lab, toks, d, L: (lab, toks + ["0:1,5"]),
    "colon in label": lambda lab, toks, d, L: ("0:1", toks),
    "dot in label": lambda lab, toks, d, L: ("0,1.0", toks),
    "duplicate index": lambda lab, toks, d, L: (lab, toks + toks[:1] if toks
                                                else ["1:1", "1:0"]),
}


@st.composite
def xc_texts(draw, fault=False):
    """(text, one_based): a file in the text format, optionally with a fault.

    Rows hold CRLF endings, empty label fields, empty feature tokens (double
    and trailing spaces), explicit zeros, leading zeros and unsorted indices. With fault, one
    to three faults from FAULTS land in random rows (the first one in the file
    is the one to report), or the file loses or gains a line.
    """
    one_based = draw(st.booleans())
    n = draw(st.integers(1, 14))
    d = draw(st.integers(1, 12))
    L = draw(st.integers(1, 6))
    shift = 1 if one_based else 0
    rows = []
    zeros = st.sampled_from(["", "", "", "0", "00"])  # leading zeros
    for _ in range(n):
        labels = draw(st.lists(st.integers(0, L - 1), unique=True, max_size=L))
        lab = ",".join(f"{draw(zeros)}{l + shift}" for l in labels)
        idx = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        toks = [f"{draw(zeros)}{j + shift}:{draw(VALUE_TEXTS)}" for j in idx]
        rows.append((lab, toks))
    kind = draw(st.sampled_from(["rows", "missing line", "trailing line"])
                if fault else st.none())
    if kind == "rows":
        for name in draw(st.lists(st.sampled_from(sorted(FAULTS)), min_size=1,
                                  max_size=3)):
            r = draw(st.integers(0, n - 1))
            rows[r] = FAULTS[name](*rows[r], d, L)
    lines = []
    for lab, toks in rows:
        seps = draw(st.lists(st.sampled_from([" ", " ", "  "]),
                             min_size=len(toks), max_size=len(toks)))
        line = lab + "".join(s + t for s, t in zip(seps, toks))
        line += draw(st.sampled_from(["", "", " "]))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    if kind == "missing line":
        lines.pop(draw(st.integers(0, n - 1)))
    elif kind == "trailing line":
        lines.append("0 0:1\n")
    return f"{n} {d} {L}\n" + "".join(lines), one_based


def parse_both(text, one_based, chunk_chars):
    outcomes = []
    for parse in (dataio_reference.parse_xc, parse_xc):
        with mock.patch.object(dataio, "_PARSE_CHUNK_CHARS", chunk_chars):
            try:
                outcomes.append(parse(text, one_based=one_based))
            except ParseError as exc:
                outcomes.append((str(exc), exc.line))
    return outcomes


def assert_same_dataset(a, b):
    for x, y in ((a.features, b.features), (a.labels, b.labels)):
        assert (x.rows, x.cols) == (y.rows, y.cols)
        for name in ("indptr", "indices", "values"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(xc_texts(), st.sampled_from([1, 16, 60, 1 << 16]))
def test_parse_and_write_match_reference(case, chunk_chars):
    text, one_based = case
    expected, got = parse_both(text, one_based, chunk_chars)
    assert_same_dataset(got, expected)
    with mock.patch.object(dataio, "_WRITE_CHUNK_NNZ", chunk_chars):
        assert write_xc(got) == dataio_reference.write_xc(expected)


@settings(max_examples=300, deadline=None)
@given(xc_texts(fault=True), st.sampled_from([1, 16, 60, 1 << 16]))
def test_faults_match_reference(case, chunk_chars):
    text, one_based = case
    expected, got = parse_both(text, one_based, chunk_chars)
    assert isinstance(expected, tuple)  # every planted fault is one
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(xc_texts())
def test_parse_without_the_float_kernel(case):
    # where x87 extended precision is missing, numpy converts every value
    # from its text, and the dataset is the same
    text, one_based = case
    want = parse_xc(text, one_based=one_based)
    with mock.patch.object(kernels, "EXACT_FLOATS", False):
        got = parse_xc(text, one_based=one_based)
    assert_same_dataset(got, want)


@settings(max_examples=60, deadline=None)
@given(xc_texts())
def test_write_without_the_float_kernel(case):
    # where x87 extended precision is missing, repr() formats every value,
    # and the text is the same
    text, one_based = case
    ds = parse_xc(text, one_based=one_based)
    want = write_xc(ds)
    with mock.patch.object(kernels, "EXACT_FLOATS", False):
        assert write_xc(ds) == want


def test_one_index_value_pair_per_token():
    with pytest.raises(ParseError, match=r"line 2: non-numeric token '1:2:3'"):
        parse_xc("1 5 1\n0 1:2:3 4\n")
    with pytest.raises(ParseError, match=r"line 2: non-numeric token '1:2:3'"):
        parse_xc("1 5 1\n0 0:1 1:2:3\n")
    with pytest.raises(ParseError, match=r"line 3: expected 'index:value', got '4'"):
        parse_xc("2 5 1\n0 1:2\n0 2:3 4\n")


def test_huge_label_is_out_of_range():
    # the per-line parser let numpy's OverflowError escape here
    with pytest.raises(ParseError, match=r"line 2: label index out of range"):
        parse_xc("1 2 1\n99999999999999999999 0:1\n")


# sha256 of write_xc's bytes for synth.powerlaw_dataset at the shape of the
# rerank benchmark, as str() and repr() value by value write them: a change
# to the writer's passes must keep them
POWERLAW_SHA256 = "131a64344c8c71c56d0d564106a28d93b9150fcf23b1b95e5ed8583d05e23b15"


def test_write_xc_bytes_are_pinned_at_benchmark_scale():
    ds = synth.powerlaw_dataset(np.random.default_rng(0), n=1000, d=2048, n_labels=250,
                                bundle_size=3, zipf_exponent=1.3, noise_features=4)
    text = write_xc(ds)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == POWERLAW_SHA256
    back = parse_xc(text)
    for got, want in ((back.features, ds.features), (back.labels, ds.labels)):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        for name in ("indptr", "indices", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def python_lines(parts):
    """join_lines' text, written value by value with str() and repr()."""
    lines = []
    starts = [np.cumsum(counts) - counts for counts, *_ in parts]
    for i in range(parts[0][0].shape[0]):
        line = ""
        for (counts, ints, floats, lead, first), start in zip(parts, starts):
            for j in range(start[i], start[i] + counts[i]):
                byte = first if j == start[i] else lead
                line += (chr(byte) if byte else "") + str(int(ints[j]))
                if floats is not None:
                    line += ":" + repr(float(floats[j]))
        lines.append(line + "\n")
    return "".join(lines)


def test_join_lines_matches_python_formatting(rng):
    # integers of every digit count up to 19 and both signs, int64's ends,
    # empty lines, one or two parts, floats of every kind
    edges = np.array([0, 1, 9, 10, 99999999, 100000000, 10**16, 10**18 - 1, -1, -10**8,
                      np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    specials = np.array([0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, np.nan, 5e-324, 1e16,
                         1e-5, -2.5e-7, 1 / 3])
    for case in range(200):
        n = int(rng.integers(0, 12))
        parts = []
        for _ in range(int(rng.integers(1, 3))):
            counts = rng.integers(0, 5, n) * (rng.random(n) < 0.8)
            k = int(counts.sum())
            digits = rng.integers(0, 19, k)
            ints = [rng.integers(0, 10**digits) * rng.choice([-1, 1], k), edges[rng.integers(0, 12, k)],
                    rng.integers(0, 300, k)][case % 3]
            floats = [None, specials[rng.integers(0, 12, k)],
                      rng.normal(size=k) * 10.0 ** rng.integers(-20, 30, k)][case // 3 % 3]
            parts.append((counts, ints, floats, int(rng.choice([32, 44])), int(rng.choice([0, 32]))))
        assert dataio.join_lines(parts) == python_lines(parts)
