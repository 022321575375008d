"""Every kernel must agree with its reference loop on random CSR inputs."""

import os
import subprocess
import sys
from contextlib import contextmanager
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import featagg
from featagg import kernels
from featagg.sparse import SparseMatrix

import kernel_reference


def random_csr(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        nnz = rng.binomial(ncols, density)
        idx = np.sort(rng.choice(ncols, size=nnz, replace=False))
        rows.append((idx, rng.uniform(-2, 2, size=nnz)))
    indptr = np.concatenate(([0], np.cumsum([len(i) for i, _ in rows])))
    indices = (np.concatenate([i for i, _ in rows])
               if rows else np.empty(0, np.int64)).astype(np.int64)
    values = (np.concatenate([v for _, v in rows])
              if rows else np.empty(0, np.float64))
    return indptr.astype(np.int64), indices, values


@pytest.fixture
def csr(rng):
    return random_csr(rng, 20, 12)


def impls(name):
    return getattr(kernels, name), getattr(kernel_reference, name)


def test_row_dots(csr, rng):
    dense = rng.normal(size=12)
    np_fn, nb_fn = impls("row_dots")
    assert np.allclose(np_fn(*csr, dense), nb_fn(*csr, dense), atol=1e-12)


def test_sum_rows(csr, rng):
    rows = rng.choice(20, size=7, replace=False).astype(np.int64)
    np_fn, nb_fn = impls("sum_rows")
    assert np.allclose(np_fn(*csr, rows, 12), nb_fn(*csr, rows, 12), atol=1e-12)


def test_weighted_sum_rows(csr, rng):
    rows = rng.choice(20, size=6, replace=False).astype(np.int64)
    weights = rng.normal(size=6)
    np_fn, nb_fn = impls("weighted_sum_rows")
    assert np.allclose(
        np_fn(*csr, rows, weights, 12), nb_fn(*csr, rows, weights, 12), atol=1e-12
    )


def test_transpose_csr(csr):
    np_fn, nb_fn = impls("transpose_csr")
    a = np_fn(*csr, 20, 12)
    b = nb_fn(*csr, 20, 12)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("ncols", [1, 256, 257, 70_000])
def test_transpose_csr_narrowed_column_ids(rng, ncols):
    # column ids of 8, 16 and 32 bits each sort as the reference loop does
    csr = random_csr(rng, 30, ncols, density=min(0.4, 20 / ncols))
    np_fn, nb_fn = impls("transpose_csr")
    for x, y in zip(np_fn(*csr, 30, ncols), nb_fn(*csr, 30, ncols)):
        assert np.array_equal(x, y)


def dense_csr(dense):
    row, col = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=dense.shape[0]))))
    return indptr.astype(np.int64), col.astype(np.int64), dense[row, col]


@pytest.mark.parametrize("shape", [(15, 10, 8), (1, 1, 1), (0, 4, 3), (5, 0, 2)])
def test_sparse_product(rng, shape):
    nrows, inner, ncols = shape
    a = rng.uniform(-2, 2, (nrows, inner)) * (rng.random((nrows, inner)) < 0.4)
    b = rng.uniform(-2, 2, (inner, ncols)) * (rng.random((inner, ncols)) < 0.4)
    if nrows >= 15:
        a[[2, 9]] = 0.0  # empty rows of A
        b[[4, 7]] = 0.0  # empty rows of B, which row 5 of A still reaches
        a[5, 4] = a[5, 7] = 1.5
        # row 0 of A B: two equal rows of B with opposite weights cancel to
        # exact 0.0s, which are dropped; row 1 cancels in all but column 0
        b[1] = b[3] = rng.uniform(0.5, 2, ncols)
        a[0] = 0.0
        a[0, 1], a[0, 3] = 0.75, -0.75
        b[6] = b[1]
        b[6, 0] += 1.0
        a[1] = 0.0
        a[1, 1], a[1, 6] = 0.5, -0.5
    args = (*dense_csr(a), *dense_csr(b), ncols)
    np_fn, loop_fn = impls("sparse_product")
    got, want = np_fn(*args), loop_fn(*args)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert np.allclose(SparseMatrix(nrows, ncols, *got).to_dense(), a @ b,
                       rtol=0.0, atol=1e-12)
    if nrows >= 15:
        indptr = got[0]
        assert indptr[1] == 0 and indptr[2] == 1  # row 0 empty, row 1 one entry
        assert indptr[3] == indptr[2] and indptr[10] == indptr[9]


def test_agglomerate_csr(csr, rng):
    cluster_of = rng.integers(0, 5, size=12).astype(np.int64)
    np_fn, nb_fn = impls("agglomerate_csr")
    for divisors in (np.empty(0), rng.uniform(1, 3, size=5)):
        a = np_fn(*csr, cluster_of, 5, divisors)
        b = nb_fn(*csr, cluster_of, 5, divisors)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)



def test_coalesce(rng):
    # 6 rows x 5 columns, rows 0 and 4 empty; repeated keys, and one key
    # whose values cancel exactly
    rows = rng.choice([1, 2, 3, 5], size=40)
    keys = rows * 5 + rng.integers(0, 5, size=40)
    values = rng.uniform(-2, 2, size=40)
    other = keys != 3 * 5 + 4
    keys = np.append(keys[other], [3 * 5 + 4, 3 * 5 + 4])
    values = np.append(values[other], [0.75, -0.75])
    np_fn, loop_fn = impls("coalesce")
    got, want = np_fn(keys, values, 6, 5), loop_fn(keys, values, 6, 5)
    # both add the values of a key in input order
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()
    assert 4 not in got[1][got[0][3]:got[0][4]]
    assert got[0][1] == 0 and got[0][5] == got[0][4]


@pytest.mark.parametrize("budget", [1, 3, 7, 100])
def test_chunk_ranges(rng, budget):
    ends = np.concatenate(([0], np.cumsum(rng.integers(0, 6, size=30))))
    ranges = list(kernels.chunk_ranges(ends, budget))
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == 30
    for lo, hi in ranges:
        # the widest range within the budget, or one row
        assert hi == lo + 1 or ends[hi] - ends[lo] <= budget
        assert hi == 30 or ends[hi + 1] - ends[lo] > budget
    assert list(kernels.chunk_ranges(np.zeros(1, np.int64), budget)) == []


def cooc_args(cluster_sizes, rng):
    d = int(sum(cluster_sizes))
    sizes = np.array(cluster_sizes, dtype=np.int64)
    clusters = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
    cluster_of = np.empty(d, dtype=np.int64)
    offset_of = np.empty(d, dtype=np.int64)
    for k, cl in enumerate(clusters):
        cluster_of[cl] = k
        offset_of[cl] = np.arange(len(cl))
    block_start = np.concatenate(([0], np.cumsum(sizes * sizes)))[:-1].astype(np.int64)
    return cluster_of, offset_of, block_start, sizes, int((sizes * sizes).sum())


def assert_cooc_bitwise(csr, cluster_args):
    *args, total = cluster_args
    np_fn, loop_fn = impls("cooc_accumulate")
    # accumulate twice so the second pass adds onto existing block values
    flat_a = np.zeros(total)
    flat_b = np.zeros(total)
    for _ in range(2):
        np_fn(*csr, *args, flat_a)
        loop_fn(*csr, *args, flat_b)
    assert np.any(flat_a != 0.0)
    assert flat_a.tobytes() == flat_b.tobytes()


def test_cooc_accumulate(csr, rng):
    assert_cooc_bitwise(csr, cooc_args([4, 5, 3], rng))


def test_cooc_accumulate_spans_row_chunks(rng, monkeypatch):
    indptr, indices, values = random_csr(rng, 40, 12, density=0.5)
    # row 5 empty, row 6 dense: 12 nonzeros, more than one chunk holds
    indices = np.concatenate((indices[: indptr[5]], np.arange(12), indices[indptr[7]:]))
    values = np.concatenate((values[: indptr[5]], rng.uniform(-2, 2, 12),
                             values[indptr[7]:]))
    lens = np.diff(indptr)
    lens[5], lens[6] = 0, 12
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    # a singleton cluster and clusters large enough for >= 3 nonzeros per row
    cluster_args = cooc_args([1, 5, 6], rng)
    monkeypatch.setattr(kernels, "_COOC_CHUNK_NNZ", 7)
    assert len(values) > 20 * kernels._COOC_CHUNK_NNZ
    cluster_of = cluster_args[0]
    assert np.bincount(cluster_of[indices[indptr[6]:indptr[7]]]).max() >= 3
    assert_cooc_bitwise((indptr, indices, values), cluster_args)



@pytest.mark.parametrize("chunk_nnz", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("row_normalize", [False, True])
def test_block_apply(rng, monkeypatch, chunk_nnz, row_normalize):
    if chunk_nnz is not None:
        monkeypatch.setattr(kernels, "_COOC_CHUNK_NNZ", chunk_nnz)
    # size-1 and ragged clusters; rows 2 and 7 empty, row 9 holds every feature
    cluster_of, offset_of, block_start, sizes, total = cooc_args([1, 4, 1, 7, 2, 1], rng)
    dense = rng.uniform(-2, 2, (12, 16)) * (rng.random((12, 16)) < 0.3)
    dense[[2, 7]] = 0.0
    dense[9] = rng.uniform(0.5, 2, 16)
    row, indices = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=12))))
    values = dense[row, indices]
    flat = np.zeros(total)
    kernels.cooc_accumulate(indptr, indices, values, cluster_of, offset_of,
                            block_start, sizes, flat)
    flat[block_start[3] + 2 * 7:block_start[3] + 3 * 7] = 0.0  # an all-zero row
    if row_normalize:  # C is then not symmetric
        for k, dk in enumerate(sizes):
            block = flat[block_start[k]:block_start[k] + dk * dk].reshape(dk, dk)
            rs = block.sum(axis=1)
            block[rs != 0] /= rs[rs != 0, None]
    member_start = np.concatenate(([0], np.cumsum(sizes)))
    members = np.empty(16, dtype=np.int64)
    members[member_start[cluster_of] + offset_of] = np.arange(16)
    args = (indptr, indices, values, cluster_of, offset_of, members, member_start,
            np.append(block_start, total), flat)
    np_fn, loop_fn = impls("block_apply")
    got, want = np_fn(*args), loop_fn(*args)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.allclose(got[2], want[2], rtol=0.0, atol=1e-12)
    assert got[0][3] == got[0][2] and got[0][8] == got[0][7]
    assert got[1].shape[0] and members[member_start[3] + 2] not in got[1]


def test_ova_sgd(csr, rng):
    indptr, indices, values = csr
    # empty row 3: drop its entries
    s, e = indptr[3], indptr[4]
    indices = np.delete(indices, np.s_[s:e])
    values = np.delete(values, np.s_[s:e])
    indptr = np.concatenate((indptr[:4], indptr[4:] - (e - s)))
    n_labels, epochs = 4, 3
    np_fn, loop_fn = impls("ova_sgd")
    for lr, l2, decay in [
        (0.3, 1e-3, 1.0),
        (20.0, 0.0, 0.0),  # large steps: many margins end above 35
        (5.0, 0.15, 1.0),  # lr*l2 = 0.75: the scale drops below 1e-9
    ]:
        sign = rng.choice([-1.0, 1.0], size=(n_labels, 20))
        order = np.concatenate(
            [rng.permutation(20) for _ in range(n_labels * epochs)]
        ).astype(np.int64)
        args = (indptr, indices, values, sign, order, 12, lr, l2, decay, 20)
        wa, ba = np_fn(*args)
        wb, bb = loop_fn(*args)
        assert wa.shape == (n_labels, 12) and ba.shape == (n_labels,)
        # the loop does the same float operations in the same order as the
        # kernel, so the two agree bit for bit
        assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
        if l2 == 0.0:
            margins = sign * (np.array([
                kernels.row_dots(indptr, indices, values, w) for w in wa
            ]) + ba[:, None])
            assert np.any(margins > 35.0)


def test_score_rows(csr, rng):
    weights = rng.normal(size=(4, 12))
    bias = rng.normal(size=4)
    np_fn, nb_fn = impls("score_rows")
    assert np.allclose(
        np_fn(*csr, weights, bias), nb_fn(*csr, weights, bias), atol=1e-12
    )


def mi_inputs(rng, n_points, n_features, n_labels, density=0.4):
    z_indptr, z_indices, z_values = random_csr(rng, n_points, n_features, density)
    z_values = np.abs(z_values) + 0.01
    y_indptr, y_indices, _ = random_csr(rng, n_points, n_labels, density=0.5)
    zt = kernels.transpose_csr(
        z_indptr, z_indices, z_values, n_points, n_features
    )
    ylen = np.diff(y_indptr).astype(np.float64)
    row_sums = kernels.row_dots(*zt, ylen)
    zsum = np.bincount(
        np.repeat(np.arange(n_points), np.diff(z_indptr)), weights=z_values,
        minlength=n_points,
    )
    col_sums = np.bincount(
        y_indices, weights=zsum[np.repeat(np.arange(n_points), np.diff(y_indptr))],
        minlength=n_labels,
    )
    return (*zt, y_indptr, y_indices, row_sums, col_sums, row_sums.sum())


def test_mi_accumulate(rng):
    args = mi_inputs(rng, 15, 8, 5)
    np_fn, loop_fn = impls("mi_accumulate")
    assert np_fn(*args) == pytest.approx(loop_fn(*args), rel=1e-12)


def test_mi_accumulate_spans_feature_blocks(rng):
    args = mi_inputs(rng, 400, 300, 40, density=0.3)
    _, zt_indices, _, y_indptr = args[:4]
    pairs = np.diff(y_indptr)[zt_indices].sum()
    assert pairs > 3 * kernels._MI_BLOCK_PAIRS
    np_fn, loop_fn = impls("mi_accumulate")
    assert np_fn(*args) == pytest.approx(loop_fn(*args), rel=1e-12)


STRAYS = [b"e", b"-", b"+", b"\t", b"\0", b"_", b".", "１".encode(), b"x"]


def number_tokens(rng, count):
    """count tokens of text the number kernels read: 0 to 22 ASCII digits
    (now and then up to 119), leading zeros included, about half with a dot;
    decimals of 16 to 19 digits at or near the midpoint of two doubles; and a
    tenth with a stray character (a second dot, a sign, an exponent, a tab, a
    NUL, a full-width digit)."""
    tokens = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.2:
            # the 16 to 19 digits nearest halfway from a double to the next
            x = float(rng.uniform(1.0, 10.0 ** rng.integers(1, 7)))
            mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
            context = Context(prec=int(rng.integers(16, 20)))
            near = context.divide(Decimal(mid.numerator), Decimal(mid.denominator))
            tokens.append(format(near, "f").encode())
            continue
        if draw < 0.25:  # an odd integer above 2**53: exactly a midpoint
            tokens.append(str(2**53 + 2 * int(rng.integers(0, 2**52)) + 1).encode())
            continue
        size = rng.integers(0, 23) if draw < 0.97 else rng.integers(23, 120)
        token = bytes(rng.integers(48, 58, size=size).astype(np.uint8))
        if rng.random() < 0.5:
            at = int(rng.integers(0, len(token) + 1))
            token = token[:at] + b"." + token[at:]
        if rng.random() < 0.1:
            at = int(rng.integers(0, len(token) + 1))
            token = token[:at] + STRAYS[rng.integers(len(STRAYS))] + token[at:]
        tokens.append(token)
    return tokens


def token_buffer(rng, tokens):
    """(buf, starts, ends, dots) of tokens laid out with one random byte, a
    digit at times, between neighbours; dots holds each token's first dot
    or -1."""
    gaps = [bytes([b]) for b in rng.choice(list(b" :.,9\n"), size=len(tokens))]
    starts, ends, dots, at = [], [], [], 0
    for gap, token in zip(gaps, tokens):
        at += 1
        starts.append(at)
        dots.append(at + token.index(b".") if b"." in token else -1)
        at += len(token)
        ends.append(at)
    buf = np.frombuffer(b"".join(g + t for g, t in zip(gaps, tokens)), dtype=np.uint8)
    return buf, *(np.array(a, dtype=np.int64) for a in (starts, ends, dots))


@pytest.mark.parametrize("name", ["parse_ints", "parse_floats"])
def test_number_kernels(rng, name):
    if name == "parse_floats" and not kernels.EXACT_FLOATS:
        pytest.skip("no x87 extended precision: parse_floats converts nothing")
    buf, starts, ends, dots = token_buffer(rng, number_tokens(rng, 5000))
    args = (buf, starts, ends) + ((dots,) if name == "parse_floats" else ())
    np_fn, loop_fn = impls(name)
    (got, got_ok), (want, want_ok) = np_fn(*args), loop_fn(*args)
    assert got.dtype == want.dtype and np.array_equal(got_ok, want_ok)
    assert got.tobytes() == want.tobytes()
    assert 0.3 < got_ok.mean() < 0.8


def test_number_kernels_equal_int_and_float(rng):
    # every converted token is int() or float() of its text, bit for bit,
    # and the tokens left unconverted are the ones the rules leave out
    tokens = number_tokens(rng, 100_000)
    buf, starts, ends, dots = token_buffer(rng, tokens)
    ints, int_ok = kernels.parse_ints(buf, starts, ends)
    # bytes.isdigit() holds for ASCII digits only
    assert np.array_equal(int_ok, [1 <= len(t) <= 18 and t.isdigit() for t in tokens])
    assert ints[int_ok].tolist() == [int(t) for t, ok in zip(tokens, int_ok) if ok]
    if not kernels.EXACT_FLOATS:
        pytest.skip("no x87 extended precision: parse_floats converts nothing")
    floats, float_ok = kernels.parse_floats(buf, starts, ends, dots)
    want = np.array([float(t) for t, ok in zip(tokens, float_ok) if ok])
    assert floats[float_ok].tobytes() == want.tobytes()
    digits = [t.replace(b".", b"", 1) for t in tokens]
    plain = np.array([0 < len(d) <= 19 and d.isdigit() for d in digits])
    # only plain decimals convert; those left are extended-precision midpoints
    assert not (float_ok & ~plain).any()
    left = np.flatnonzero(plain & ~float_ok)
    assert 0 < left.shape[0] < 0.1 * len(tokens)
    _, ref_ok = kernel_reference.parse_floats(buf, starts[left], ends[left], dots[left])
    assert not ref_ok.any()


def test_parse_floats_needs_x87_extended_precision(rng, monkeypatch):
    buf, starts, ends, dots = token_buffer(rng, [b"1.5", b"2", b"0.25"])
    monkeypatch.setattr(kernels, "EXACT_FLOATS", False)
    values, ok = kernels.parse_floats(buf, starts, ends, dots)
    assert not ok.any() and not values.any()


def test_backend_switch_is_gone():
    # no environment variable selects kernels, and importing the package
    # pulls in no third-party module but numpy
    src = str(Path(featagg.__file__).resolve().parents[1])
    env = dict(os.environ, FEATAGG_BACKEND="bogus",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import featagg\n"
        "assert featagg.backend_name() == 'numpy'\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "extra = new - set(sys.stdlib_module_names) - {'featagg', 'numpy'}\n"
        "assert not extra, extra\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# ordering kernels against np.lexsort and np.array_equal
# ---------------------------------------------------------------------------

# few distinct values, so ties are common; -0.0 ties with 0.0
ORDER_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 1e-300, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), ORDER_VALUES | st.just(np.nan)), max_size=60))
def test_rank_within_equals_lexsort(pairs):
    group = np.array([g for g, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    got = kernels.rank_within(group, values)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.lexsort((-values, group)))
    # a scalar group is one group
    assert np.array_equal(kernels.rank_within(0, values), np.lexsort((-values,)))


def test_rank_within_wide_groups():
    # group ids up to 2**40 stay exact as the keys' real parts
    rng = np.random.default_rng(3)
    group = rng.choice(rng.integers(0, 2**40, 20), 500)
    values = rng.integers(0, 3, 500) * 0.5
    assert np.array_equal(kernels.rank_within(group, values), np.lexsort((-values, group)))


# keys within 16 bits, above 16 bits, and spread over int64 so that the
# composite key overflows
KEYS = (st.integers(0, 40) | st.integers(-2**20, 2**20)
        | st.sampled_from([-2**63, 2**63 - 1, 2**53, 2**53 + 1, -1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3) | st.sampled_from([2**40, -2**62]), KEYS),
                max_size=60))
def test_group_order_equals_lexsort(pairs):
    group = np.array([g for g, _ in pairs], dtype=np.int64)
    key = np.array([k for _, k in pairs], dtype=np.int64)
    got = kernels.group_order(group, key)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.lexsort((key, group)))
    assert np.array_equal(kernels.group_order(0, key), np.lexsort((key,)))


@pytest.mark.parametrize("group, key, overflows", [
    ([0, 1, 1, 0], [5, 3, 3, 2], False),                        # radix width
    ([0, 0, 1], [2**40, 0, 7], False),                          # 41-bit keys
    ([0, 2**40], [0, 2**22], False),                            # 63-bit composite
    ([0, 2**41], [0, 2**22], True),                             # 64-bit composite
    ([0, 1, 0], [-2**63, 2**63 - 1, 0], True),                  # key span alone
    ([5, 5, 5], [2**62, 1 - 2**62, 0], False),                  # one group, 63-bit span
    ([5, 5, 5], [2**62, -2**62, 0], True),                      # one group, 64-bit span
])
def test_group_order_takes_lexsort_only_on_overflow(monkeypatch, group, key, overflows):
    group, key = np.array(group, dtype=np.int64), np.array(key, dtype=np.int64)
    want = np.lexsort((key, group))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    assert np.array_equal(kernels.group_order(group, key), want)
    assert bool(calls) == overflows


def test_ordering_kernels_on_empty_input():
    empty_i, empty_f = np.empty(0, np.int64), np.empty(0, np.float64)
    for order in (kernels.rank_within(empty_i, empty_f), kernels.group_order(empty_i, empty_i),
                  kernels.row_ids(np.zeros(1, np.int64), empty_i, empty_f)):
        assert order.dtype == np.int64 and order.shape == (0,)


@st.composite
def csr_with_repeats(draw):
    """CSR rows drawn from a small pool, so many rows repeat; values include
    -0.0 (equal to 0.0) and NaN (equal to nothing)."""
    pool = draw(st.lists(st.lists(st.tuples(st.integers(0, 4), ORDER_VALUES | st.just(np.nan)),
                                  max_size=4), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    rows = [pool[i] for i in picks]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    indices = np.array([j for r in rows for j, _ in r], dtype=np.int64)
    values = np.array([v for r in rows for _, v in r], dtype=np.float64)
    # flip the sign of some zeros: the rows stay equal under np.array_equal
    flip = np.array(draw(st.lists(st.booleans(), min_size=values.shape[0],
                                  max_size=values.shape[0])), dtype=bool)
    values[flip & (values == 0.0)] *= -1.0
    return indptr, indices, values


def assert_row_ids_exact(indptr, indices, values):
    ids = kernels.row_ids(indptr, indices, values)
    assert ids.dtype == np.int64 and ids.shape == (indptr.shape[0] - 1,)
    rows = [(indices[s:e], values[s:e]) for s, e in zip(indptr[:-1], indptr[1:])]
    for i, (ia, va) in enumerate(rows):
        # another row shares the id exactly when it is equal; the id is the
        # first such row, or i itself (a row holding NaN equals no row)
        equal = [j != i and np.array_equal(ia, ib) and np.array_equal(va, vb)
                 for j, (ib, vb) in enumerate(rows)]
        assert ids[i] == min(equal.index(True) if True in equal else i, i)
        assert all((ids[i] == ids[j]) == equal[j] for j in range(len(rows)) if j != i)


@settings(max_examples=200, deadline=None)
@given(csr_with_repeats())
def test_row_ids_equal_pairwise_array_equal(csr):
    assert_row_ids_exact(*csr)


@contextmanager
def row_hash(fn):
    mix = kernels._mix
    kernels._mix = fn
    try:
        yield
    finally:
        kernels._mix = mix


@settings(max_examples=100, deadline=None)
@given(csr_with_repeats(), st.sampled_from([0, 1, 3]))
def test_row_ids_resolve_hash_collisions(csr, mask):
    # a hash of 0 to 2 bits makes most rows collide: the entry compares
    # alone must tell the rows apart
    with row_hash(lambda x: x & np.uint64(mask)):
        assert_row_ids_exact(*csr)
