"""Every kernel must agree with its reference loop on random CSR inputs."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import featagg
from featagg import kernels, splits, tree
from featagg.cooc import PseudoCooc
from featagg.sparse import SparseMatrix
from featagg.tree import FeaturePartition

import kernel_reference
import tree_reference


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
def test_sparse_product(rng, monkeypatch, shape):
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
    want = loop_fn(*args)
    # as shipped, then in chunks of rows that expand 1 to 7 pairs
    for chunk_pairs in (kernels._PRODUCT_CHUNK_PAIRS, 1, 2, 3, 4, 5, 6, 7):
        monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", chunk_pairs)
        got = np_fn(*args)
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


@contextmanager
def dense_slots(per_key):
    saved = kernels._DENSE_SLOTS_PER_KEY
    kernels._DENSE_SLOTS_PER_KEY = per_key
    try:
        yield
    finally:
        kernels._DENSE_SLOTS_PER_KEY = saved


SUMMANDS = (st.floats(-4.0, 4.0, width=16)
            | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]))


@st.composite
def keyed_values(draw):
    """(keys, values, nrows, ncols) for coalesce: keys repeat, some keys' values
    cancel to an exact zero, and wide keys (ncols of 2**35 and more) have a
    range far too large for a dense array."""
    wide = draw(st.booleans())
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(2**35, 2**40) if wide else st.integers(1, 6))
    size = nrows * ncols
    if size == 0:
        return np.zeros(0, np.int64), np.zeros(0), nrows, ncols
    pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), SUMMANDS), max_size=30))
    # a value and its negation at one key: their sum is exactly zero
    pairs += [(k, -v) for k, v in pairs if draw(st.booleans())]
    order = draw(st.permutations(range(len(pairs))))
    keys = np.array([pairs[i][0] for i in order], dtype=np.int64)
    values = np.array([pairs[i][1] for i in order], dtype=np.float64)
    return keys, values, nrows, ncols


@settings(max_examples=300, deadline=None)
@given(keyed_values())
def test_coalesce_paths_agree(case):
    keys, values, nrows, ncols = case
    with np.errstate(all="ignore"):
        with dense_slots(0):  # always the sort
            got = kernels.coalesce(keys, values, nrows, ncols)
        want = kernel_reference.coalesce(keys, values, nrows, ncols)
        if nrows * ncols <= 1 << 12:
            with dense_slots(1 << 12):  # always the dense bins
                dense = kernels.coalesce(keys, values, nrows, ncols)
            for x, y in zip(got, dense):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # the loop's NaNs may carry another sign bit; every other value is equal
    # bit for bit
    nan = np.isnan(want[2])
    assert np.array_equal(np.isnan(got[2]), nan)
    assert got[2][~nan].tobytes() == want[2][~nan].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.lists(st.integers(0, 39), max_size=30))
def test_key_slots_equal_unique(size, draws):
    keys = np.array([k % size for k in draws], dtype=np.int64)
    want = np.unique(keys, return_inverse=True)
    for per_key in (0, 1, 4, 1 << 12):
        with dense_slots(per_key):
            got = kernels.key_slots(keys, size)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)


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



@pytest.mark.parametrize("chunk_pairs", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("row_normalize", [False, True])
def test_block_apply(rng, monkeypatch, chunk_pairs, row_normalize):
    if chunk_pairs is not None:
        monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", chunk_pairs)
    # size-1 and ragged clusters; rows 2 and 7 empty, row 9 holds every feature
    sizes = np.array([1, 4, 1, 7, 2, 1])
    part = FeaturePartition.from_clusters(
        16, np.split(rng.permutation(16), np.cumsum(sizes)[:-1]))
    c = PseudoCooc(part, np.zeros(int((sizes * sizes).sum())))
    dense = rng.uniform(-2, 2, (12, 16)) * (rng.random((12, 16)) < 0.3)
    dense[[2, 7]] = 0.0
    dense[9] = rng.uniform(0.5, 2, 16)
    row, indices = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=12))))
    values = dense[row, indices]
    block_start = c.block_start
    kernels.cooc_accumulate(indptr, indices, values, part.cluster_of, c.offset_of,
                            block_start[:-1], sizes, c.flat)
    c.flat[block_start[3] + 2 * 7:block_start[3] + 3 * 7] = 0.0  # an all-zero row
    if row_normalize:  # C is then not symmetric
        for k, dk in enumerate(sizes):
            block = c.flat[block_start[k]:block_start[k] + dk * dk].reshape(dk, dk)
            rs = block.sum(axis=1)
            block[rs != 0] /= rs[rs != 0, None]
    got = c.apply(SparseMatrix(12, 16, indptr, indices, values))
    got = got.indptr, got.indices, got.values
    want = kernel_reference.block_apply(
        indptr, indices, values, part.cluster_of, c.offset_of, part.members, part.ptr,
        block_start, c.flat)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.allclose(got[2], want[2], rtol=0.0, atol=1e-12)
    assert got[0][3] == got[0][2] and got[0][8] == got[0][7]
    assert got[1].shape[0] and part.members[part.ptr[3] + 2] not in got[1]


def test_ova_sgd(csr, rng, monkeypatch):
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
        wb, bb = loop_fn(*args)
        # budgets of a few entries put every step in a chunk of its own
        for chunk_pairs in (kernels._PRODUCT_CHUNK_PAIRS, 1, 2, 3, 7):
            monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", chunk_pairs)
            wa, ba = np_fn(*args)
            assert wa.shape == (n_labels, 12) and ba.shape == (n_labels,)
            # the loop does the same float operations in the same order as
            # the kernel, so the two agree bit for bit
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
        if l2 == 0.0:
            margins = sign * (np.array([
                kernels.row_dots(indptr, indices, values, w) for w in wa
            ]) + ba[:, None])
            assert np.any(margins > 35.0)


@st.composite
def sgd_inputs(draw):
    """ova_sgd arguments: CSR rows from a small pool (so rows repeat), empty
    rows among them, signed values (±0.0, ±inf and NaN among them); 1 to 5
    labels, 1 to 3 epochs, and settings that clip margins above 35 or drop
    the scale below 1e-9."""
    dim = draw(st.integers(1, 8))
    value = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    pool = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), value),
                         min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    rows = [sorted(pool[i].items()) for i in picks]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    indices = np.array([j for r in rows for j, _ in r], dtype=np.int64)
    values = np.array([v for r in rows for _, v in r], dtype=np.float64)
    n, n_labels, epochs = len(rows), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_labels * n,
                                  max_size=n_labels * n))).reshape(n_labels, n)
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.random.default_rng(seed).permutation
    order = np.concatenate([perm(n) for _ in range(n_labels * epochs)]).astype(np.int64)
    lr, l2, decay = draw(st.sampled_from([
        (0.3, 1e-3, 1.0),
        (20.0, 0.0, 0.0),  # clipping: margins above 35
        (5.0, 0.15, 1.0),  # rescaling: lr * l2 = 0.75 takes the scale below 1e-9
        (8.0, 0.1, 0.5),
    ]))
    return indptr, indices, values, sign, order, dim, lr, l2, decay, n


@settings(max_examples=150, deadline=None)
@given(sgd_inputs(), st.sampled_from([1, 2, 3, 7, 1 << 14]))
def test_ova_sgd_equals_reference_loop(args, chunk_pairs):
    # a NaN margin beside a clipped one, and a clipped label whose row holds
    # an infinity (0 * inf is NaN), tell whether clipped labels are skipped
    budget = kernels._PRODUCT_CHUNK_PAIRS
    kernels._PRODUCT_CHUNK_PAIRS = chunk_pairs
    try:
        with np.errstate(all="ignore"):
            want = kernel_reference.ova_sgd(*args)
            got = kernels.ova_sgd(*args)
    finally:
        kernels._PRODUCT_CHUNK_PAIRS = budget
    for x, y in zip(got, want):
        # equal bits, but for the sign and payload of a NaN, which numpy's
        # array operations and the loop's scalar ones set differently
        nan = np.isnan(y)
        assert np.array_equal(np.isnan(x), nan)
        assert x[~nan].tobytes() == y[~nan].tobytes()


def test_ova_sgd_scratch_does_not_grow_with_steps(rng, monkeypatch):
    # 200 rows of at most 6 entries, 2 labels; the chunk budget of 64 entries
    # makes many chunks and windows at every epoch count
    monkeypatch.setattr(kernels, "_PRODUCT_CHUNK_PAIRS", 64)
    indptr, indices, values = random_csr(rng, 200, 12, density=0.25)
    sign = rng.choice([-1.0, 1.0], size=(2, 200))
    peaks = []
    for epochs in (1, 8):
        order = np.concatenate(
            [rng.permutation(200) for _ in range(2 * epochs)]).astype(np.int64)
        tracemalloc.start()
        try:
            kernels.ova_sgd(indptr, indices, values, sign, order, 12, 0.3, 1e-3, 1.0, 200)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # eight times the steps: an array of one int64 per step would add 12.8 KB
    assert peaks[1] <= peaks[0] + 2048, peaks


def test_score_rows(csr, rng):
    weights = rng.normal(size=(4, 12))
    bias = rng.normal(size=4)
    np_fn, nb_fn = impls("score_rows")
    assert np.allclose(
        np_fn(*csr, weights, bias), nb_fn(*csr, weights, bias), atol=1e-12
    )


@st.composite
def scoring_inputs(draw):
    """(indptr, indices, values, weights, bias) for score_rows: no label to
    many, one column to many, up to 200 rows of a few stored lengths (so
    stacks hold many rows), all-empty rows, stored +-0.0 values and weights,
    and magnitudes from 1e-3 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_labels = draw(st.sampled_from([0, 1, 2, 7, 64, 333, 1500]))
    dim = draw(st.sampled_from([1, 2, 9, 150, 1024]))
    nrows = draw(st.integers(0, 200))
    pool = rng.integers(0, min(dim, 40) + 1, draw(st.integers(1, 4)))
    lengths = rng.choice(pool * (rng.random(pool.shape[0]) > 0.25), nrows)
    indices = np.concatenate([np.sort(rng.choice(dim, n, replace=False)) for n in lengths]
                             + [np.zeros(0)]).astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)

    def draws(size):
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size)
        return np.where(rng.random(size) < 0.1, rng.choice([0.0, -0.0], size), x)

    return (indptr, indices, draws(indices.shape[0]), draws((n_labels, dim)),
            draws(n_labels))


@settings(max_examples=150, deadline=None)
@given(scoring_inputs(), st.sampled_from([1, 40, 1000, kernels._SCORE_STACK_WEIGHTS]))
def test_score_rows_bytes_equal_in_both_layouts(case, stack_weights):
    """Column-major weights (as models hold them) and row-major ones give the
    bytes of the former strided gather, whatever rows a stack holds. A BLAS
    that summed the layouts or the stacked products in different orders
    would fail here: the bytes are the contract."""
    indptr, indices, values, weights, bias = case
    want = kernel_reference.score_rows_strided(indptr, indices, values, weights, bias)
    bound = kernels._SCORE_STACK_WEIGHTS
    kernels._SCORE_STACK_WEIGHTS = stack_weights
    try:
        for layout in (np.ascontiguousarray(weights), np.asfortranarray(weights)):
            got = kernels.score_rows(indptr, indices, values, layout, bias)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    finally:
        kernels._SCORE_STACK_WEIGHTS = bound


def test_score_rows_scratch_is_stack_bounded(rng):
    # 400 rows of 16 entries and 256 labels: gathered at once, their weights
    # would take 13 MB
    n, length, n_labels, dim = 400, 16, 256, 64
    indices = np.concatenate([np.sort(rng.choice(dim, length, replace=False))
                              for _ in range(n)]).astype(np.int64)
    indptr = np.arange(n + 1, dtype=np.int64) * length
    weights = np.asfortranarray(rng.normal(size=(n_labels, dim)))
    values, bias = rng.normal(size=n * length), rng.normal(size=n_labels)
    tracemalloc.start()
    try:
        kernels.score_rows(indptr, indices, values, weights, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = n * n_labels * 8
    assert peak < out_bytes + 2 * kernels._SCORE_STACK_WEIGHTS * 8 + 65536, peak


@st.composite
def gather_inputs(draw):
    """(indptr, indices, values, rows, dense, labels) for gather_dots: negative
    values, empty rows and empty dense rows, repeated (row, label) pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_labels, dim, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 6))
    indptr, indices, values = random_csr(rng, nrows, dim, density=draw(st.sampled_from([0.0, 0.3, 1.0])))
    dense = rng.uniform(-2, 2, (n_labels, dim)) * (rng.random((n_labels, dim)) < 0.6)
    dense[rng.random(n_labels) < 0.3] = 0.0
    pairs = draw(st.integers(0, 12))
    return (indptr, indices, values, rng.integers(0, nrows, pairs), dense,
            rng.integers(0, n_labels, pairs))


@settings(max_examples=150, deadline=None)
@given(gather_inputs(), st.sampled_from([1, 2, 5, 1 << 14]))
def test_gather_dots_equals_reference_loop(case, chunk_pairs):
    saved = kernels._PRODUCT_CHUNK_PAIRS
    kernels._PRODUCT_CHUNK_PAIRS = chunk_pairs
    try:
        got = kernels.gather_dots(*case)
    finally:
        kernels._PRODUCT_CHUNK_PAIRS = saved
    assert got.tobytes() == kernel_reference.gather_dots(*case).tobytes()


@settings(max_examples=300, deadline=None)
@given(keyed_values(), st.lists(st.integers(0, 2**45), max_size=10))
def test_key_sums_are_the_summed_values(case, draws):
    """Both tables give each key's values summed from 0.0 in input order, and
    0.0 at a key no value falls on."""
    keys, values, nrows, ncols = case
    size = nrows * ncols
    if size == 0:
        return
    at = np.array([k % size for k in draws] + keys[:3].tolist(), dtype=np.int64)
    want = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        want[k] = want.get(k, 0.0) + v
    want = np.array([want.get(k, 0.0) for k in at.tolist()])
    with np.errstate(all="ignore"):
        for per_key in (0, 1 << 12):
            if per_key and size > per_key * max(keys.shape[0], 1):
                continue
            with dense_slots(per_key):
                got = kernels.key_sums(keys, values, size, at)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


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
    assert pairs > 3 * kernels._PRODUCT_CHUNK_PAIRS
    np_fn, loop_fn = impls("mi_accumulate")
    assert np_fn(*args) == pytest.approx(loop_fn(*args), rel=1e-12)


STRAYS = [b"e", b"-", b"+", b"\t", b"\0", b"_", b".", "１".encode(), b"x"]


def number_tokens(rng, count):
    """count tokens of text the number kernels read: 0 to 22 ASCII digits
    (now and then up to 119), leading zeros included, about half with a dot;
    decimals of 16 to 19 digits at or near the midpoint of two doubles;
    repr() of doubles from 1e-30 to 1e30; some, most of them with a dot,
    with a sign, a run of leading zeros or an exponent of 1 to 4 digits; and
    a tenth with a stray character (a second dot, a sign, an exponent, a tab, a NUL, a
    full-width digit)."""
    tokens = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.15:
            # the 16 to 19 digits nearest halfway from a double to the next
            x = float(rng.uniform(1.0, 10.0 ** rng.integers(1, 7)))
            mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
            context = Context(prec=int(rng.integers(16, 20)))
            near = context.divide(Decimal(mid.numerator), Decimal(mid.denominator))
            tokens.append(format(near, "f").encode())
            continue
        if draw < 0.2:  # an odd integer above 2**53: exactly a midpoint
            tokens.append(str(2**53 + 2 * int(rng.integers(0, 2**52)) + 1).encode())
            continue
        if draw < 0.23:
            x = rng.random() * 10.0 ** rng.integers(-30, 31)
            tokens.append(repr(float(x)).encode())
            continue
        size = rng.integers(0, 23) if draw < 0.97 else rng.integers(23, 120)
        token = bytes(rng.integers(48, 58, size=size).astype(np.uint8))
        if rng.random() < 0.5:
            at = int(rng.integers(0, len(token) + 1))
            token = token[:at] + b"." + token[at:]
        if b"." in token or rng.random() < 0.03:  # mostly tokens no int reads
            if rng.random() < 0.1:
                token = b"0" * int(rng.integers(1, 30)) + token
            if rng.random() < 0.15:
                token += (b"eE"[rng.integers(2):][:1] + b"-+"[rng.integers(3):][:1]
                          + str(rng.integers(0, 10 ** rng.integers(1, 5))).encode())
            if rng.random() < 0.1:
                token = b"-+"[rng.integers(2):][:1] + token
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
    # only tokens of the kernel's form convert; those left are
    # extended-precision midpoints
    plain = np.array([float_form(t) for t in tokens])
    assert not (float_ok & ~plain).any()
    left = np.flatnonzero(plain & ~float_ok)
    assert 0 < left.shape[0] < 0.1 * len(tokens)
    _, ref_ok = kernel_reference.parse_floats(buf, starts[left], ends[left], dots[left])
    assert not ref_ok.any()
    # exponents, signs and tokens of 20 or more digits all take the fallback
    for kind in (b"e", b"E", b"-", b"+"):
        has = [kind in t for t in tokens]
        assert sum(has) > 100 and not float_ok[has].any()
    long = [len(t.replace(b".", b"")) >= 20 for t in tokens]
    assert sum(long) > 100 and not float_ok[long].any()


def float_form(token):
    """Whether token has the form that parse_floats converts: digits[.digits]
    with 1 to 19 digits, leading zeros counted."""
    match = kernel_reference._FLOAT_TOKEN.fullmatch(token)
    return bool(match) and 1 <= len(b"".join(match.groups(b""))) <= 19


@pytest.mark.parametrize("token, converts", [
    # signs, exponents and more than 19 digits, leading zeros counted, are
    # the fallback's
    (b"1e-05", False), (b"1.2345678901234567e-05", False), (b"1.5E+3", False),
    (b"1e5", False), (b"-2.5e-3", False), (b"+7", False), (b"-0", False),
    (b"0.000123456789012345678", False),  # 22 digits, 4 of them leading zeros
    (b"0" * 30 + b"12.5", False), (b"0." + b"0" * 26 + b"1", False),
    (b"0." + b"0" * 27 + b"1", False),  # 10**-28
    (b"1e27", False), (b"1e28", False), (b"1.5e+300", False),
    (b"12345678901234567890", False), (b"1e-0005", False), (b"1e", False),
    (b"e5", False), (b"1.5e5.0", False), (b"--1", False), (b".", False),
    (b"5.", True), (b".5", True), (b"inf", False),
])
def test_parse_floats_forms(token, converts):
    if not kernels.EXACT_FLOATS:
        pytest.skip("no x87 extended precision: parse_floats converts nothing")
    buf = np.frombuffer(b" " + token + b" ", dtype=np.uint8)
    dot = token.find(b".")
    values, ok = kernels.parse_floats(buf, np.array([1]), np.array([1 + len(token)]),
                                      np.array([1 + dot if dot >= 0 else -1]))
    assert ok[0] == converts
    if converts:
        assert values[0] == float(token)
        assert np.signbit(values[0]) == np.signbit(float(token))


def test_parse_floats_needs_x87_extended_precision(rng, monkeypatch):
    buf, starts, ends, dots = token_buffer(rng, [b"1.5", b"2", b"0.25"])
    monkeypatch.setattr(kernels, "EXACT_FLOATS", False)
    values, ok = kernels.parse_floats(buf, starts, ends, dots)
    assert not ok.any() and not values.any()


def repr_values(rng, count):
    """About count doubles whose repr() format_floats must match: every
    binade with its end points, subnormals, 5e-324, the largest double, each
    power of two, both zeros, the switch points of fixed notation (1e16,
    1e-4) and their neighbours, decimals of 1 to 17 digits, runs of nines
    that carry, uniform and sigmoid draws, log-uniform values of both signs
    from 1e-12 to 1e28, and random bit patterns."""
    twos = 2.0 ** np.arange(-1074, 1024)
    switches = np.array([1e16, 1e-4, 1e-5, 9.999999999999999e15, 1e15, 1e17, 1e-3])
    fixed = [np.array([0.0, -0.0, 5e-324, np.finfo(np.float64).max,
                       np.finfo(np.float64).tiny, np.inf, -np.inf, np.nan]),
             twos, -twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf),
             switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf),
             np.array([float("9" * p + f"e{k}") for p in range(1, 18)
                       for k in range(-15, 30)])]
    size = (count - sum(map(len, fixed))) // 8
    binades = rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(-1074, 1024, size)
    subnormal = rng.integers(1, 2**52, size // 8, dtype=np.uint64).view(np.float64)
    digits = rng.integers(1, 18, size)
    decimals = np.array([float(f"{d}e{k}") for d, k in zip(
        (rng.random(size) * 10.0 ** digits).astype(np.int64) + 1,
        rng.integers(-25, 25, size))])
    log_uniform = (np.exp(rng.uniform(np.log(1e-12), np.log(1e28), 2 * size))
                   * rng.choice([-1.0, 1.0], 2 * size))
    bits = rng.integers(0, 2**64, 2 * size, dtype=np.uint64).view(np.float64)
    sigmoid = 1.0 / (1.0 + np.exp(-4.0 * rng.normal(size=size)))
    return np.concatenate(fixed + [binades, subnormal, decimals, log_uniform, bits,
                                   rng.random(size), sigmoid])


def repr_bytes(values):
    """repr() of each value as a row of 24 NUL-padded bytes."""
    text = np.array([repr(v) for v in values.tolist()], dtype="S24")
    return text.view(np.uint8).reshape(-1, 24)


def test_format_floats_matches_repr(rng):
    values = repr_values(rng, 1_000_000)
    assert values.shape[0] >= 1_000_000
    chars, ok = kernels.format_floats(values)
    assert chars.shape == (values.shape[0], 24) and chars.dtype == np.uint8
    assert np.array_equal(chars[ok], repr_bytes(values[ok]))
    assert not chars[~ok].any()
    if not kernels.EXACT_FLOATS:
        assert not ok.any()
        return
    # the values left to repr(): zeros, non-finite values, powers of two,
    # powers of ten beyond 10**27, and a few halfway cases
    a = np.abs(values)
    regular = (np.isfinite(a) & (a >= 1e-11) & (a < 1e27)
               & (values.view(np.uint64) << 12 != 0))
    assert not ok[~regular & ~np.isfinite(a)].any()
    assert not ok[(a == 0) | (values.view(np.uint64) << 12 == 0)].any()
    assert ok[regular].mean() > 0.95
    # every digit count, both notations and both signs
    formatted = [repr(v) for v in values[ok][::50].tolist()]
    counts = {len(t.lstrip("-").split("e")[0].replace(".", "").strip("0"))
              for t in formatted}
    assert counts == set(range(1, 18))
    assert any("e-" in t for t in formatted) and any("e+" in t for t in formatted)
    assert any(t.startswith("-") for t in formatted)


def test_format_floats_matches_reference(rng):
    values = repr_values(rng, 40_000)[::10]
    got_chars, got_ok = kernels.format_floats(values)
    want_chars, want_ok = kernel_reference.format_floats(values)
    if not kernels.EXACT_FLOATS:
        assert not got_ok.any() and not got_chars.any()
        return
    assert np.array_equal(got_ok, want_ok)
    assert np.array_equal(got_chars, want_chars)
    assert 0.3 < got_ok.mean() < 0.95


def test_format_floats_needs_x87_extended_precision(monkeypatch):
    monkeypatch.setattr(kernels, "EXACT_FLOATS", False)
    chars, ok = kernels.format_floats(np.array([0.1, 1 / 3, 123.0]))
    assert not ok.any() and not chars.any()


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
@given(st.lists(st.tuples(st.integers(0, 5), ORDER_VALUES), max_size=60))
def test_rank_within_equals_lexsort(pairs):
    group = np.array([g for g, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    got = kernels.rank_within(group, values)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.lexsort((-values, group)))
    # a scalar group is one group
    assert np.array_equal(kernels.rank_within(0, values), np.lexsort((-values,)))


def test_rank_within_wide_groups():
    rng = np.random.default_rng(3)
    group = rng.choice(rng.integers(0, 2**40, 20), 500)
    values = rng.integers(0, 3, 500) * 0.5
    assert np.array_equal(kernels.rank_within(group, values), np.lexsort((-values, group)))


# palettes of few values, so runs of equal values are long
RANK_PALETTES = [
    [0.0, -0.0],
    [0.0, -0.0, 1.0],
    [np.inf, -np.inf, 0.0],
    [1.0, -1.0, 0.5, -0.0, 3.0, 1e-300, -1e300],
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 100, 5000, 70_000]),
       st.sampled_from(["scalar", "one", "few", "many", "wide"]), st.booleans(),
       st.sampled_from([None, *range(len(RANK_PALETTES))]),
       st.sampled_from([0.0, 0.1, 0.13, 0.5, 0.97]))
def test_rank_within_large_inputs_equal_lexsort(seed, n, groups, sort_groups, palette,
                                                 zeros):
    """Sizes above 2**16, group spans below and above 2**16 (so the group
    sort runs narrowed to 16 bits and wide), scalar, single and unsorted
    groups, long runs of +-0.0 and +-inf, and zero shares on both sides
    of the one eighth at which zeros skip the quicksort."""
    rng = np.random.default_rng(seed)
    if palette is None:
        values = rng.normal(size=n)
    else:
        values = rng.choice(RANK_PALETTES[palette], n)
    zero = rng.random(n) < zeros
    values[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    span = {"scalar": 1, "one": 1, "few": 7, "many": 3000, "wide": 2**17 + 5}[groups]
    group = rng.integers(0, span, n) + rng.choice([0, -3, 2**40])
    if sort_groups:
        group.sort()
    want = np.lexsort((-values, group))
    got = kernels.rank_within(group[0] if groups == "scalar" else group, values)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3) | st.sampled_from([2**40, -2**62]), KEYS),
                max_size=60))
@example([(0, -2**63), (0, -1), (0, -1)])  # one group whose keys span 2**63
def test_group_repeats_counts_each_repeated_pair(pairs):
    group = np.array([g for g, _ in pairs], dtype=np.int64)
    key = np.array([k for _, k in pairs], dtype=np.int64)
    seen, want = set(), []
    for pair in pairs:
        if pair in seen:
            want.append(pair[0])
        seen.add(pair)
    got = kernels.group_repeats(group, key)
    assert got.dtype == np.int64
    assert got.tolist() == sorted(want)


@pytest.mark.parametrize("group, key, overflows", [
    ([0, 1, 1, 0, 1], [5, 3, 3, 2, 4], False),
    ([0, 2**41, 2**41], [0, 2**22, 2**22], True),
    ([0, 1, 0, 0], [-2**63, 2**63 - 1, 0, -2**63], True),
])
def test_group_repeats_sorts_pairs_only_on_overflow(monkeypatch, group, key, overflows):
    group, key = np.array(group, dtype=np.int64), np.array(key, dtype=np.int64)
    calls = []
    group_order = kernels.group_order
    monkeypatch.setattr(kernels, "group_order", lambda *a: calls.append(1) or group_order(*a))
    assert kernels.group_repeats(group, key).tolist() == [group[-1]]
    assert bool(calls) == overflows


def test_ordering_kernels_on_empty_input():
    empty_i, empty_f = np.empty(0, np.int64), np.empty(0, np.float64)
    for order in (kernels.rank_within(empty_i, empty_f), kernels.group_order(empty_i, empty_i)):
        assert order.dtype == np.int64 and order.shape == (0,)


# ---------------------------------------------------------------------------
# pivot_attempts, and the tree's pick of each node's first distinct pair,
# against numpy's own generators
# ---------------------------------------------------------------------------


class HashedIds:
    """The ids of size rows from position start on, without storing them: a
    hash of the position (the top 4 bits of its product with 2**64 over the
    golden ratio), one of 16 values, so about one draw in 16 repeats an id.
    Slices and integer arrays index it as they index an array."""

    def __init__(self, size, start=0):
        self.shape, self.start = (size,), start

    def __getitem__(self, at):
        if isinstance(at, slice):
            lo, hi, _ = at.indices(self.shape[0])
            return HashedIds(hi - lo, self.start + lo)
        flat = np.array(at, dtype=np.uint64, ndmin=1) + np.uint64(self.start)
        return ((flat * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(60)).reshape(np.shape(at))


class CountingRng:
    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return self.rng.choice(*args, **kwargs)


def pivot_picks(seed, keys, starts, sizes, ids, attempts):
    """Per node, the first of its pivot_attempts pairs whose ids differ."""
    pairs = kernels.pivot_attempts(seed, keys, sizes, attempts)
    assert pairs.dtype == np.int64 and pairs.shape == (len(keys), attempts, 2)
    at = ids[np.asarray(starts)[:, None, None] + pairs]
    return tree._first_distinct(pairs, at[..., 0] != at[..., 1])


def numpy_picks(seed, keys, starts, sizes, ids):
    """Per node, what splits._pick_two_distinct gives with the node's numpy
    generator ((-1, -1) for None), and how many attempts it drew."""
    picks, attempts = [], []
    for key, lo, m in zip(keys.tolist(), starts.tolist(), sizes.tolist()):
        rng = CountingRng(np.random.default_rng(np.random.SeedSequence([seed % 2**63, key])))
        node = ids[lo:lo + m]
        picks.append(splits._pick_two_distinct(m, lambda a, b: node[a] != node[b], rng)
                     or (-1, -1))
        attempts.append(rng.calls)
    return np.array(picks, dtype=np.int64).reshape(-1, 2), np.array(attempts)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, -1, -2**64 - 3])
def test_pivot_draws_equal_numpy(seed):
    # 17 000 nodes per seed: keys small, around 2**32 and up to 2**64 - 1;
    # a quarter of size 2 (the first draw takes no output); ids all distinct,
    # from three values, or all but one equal, so nodes take 1 to 6 attempts
    # (the spare half of a 64-bit output carries over between them) or fail
    rng = np.random.default_rng(seed % 2**63)
    n = 17_000
    keys = np.concatenate((np.arange(1, 4001), 2**32 - 2000 + np.arange(4000),
                           rng.integers(0, 2**64, 9000, dtype=np.uint64))).astype(np.uint64)
    sizes = np.where(rng.random(n) < 0.25, 2, rng.integers(3, 40, n))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    kind = np.repeat(rng.integers(0, 3, n), sizes)
    at = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    ids = np.select([kind == 0, kind == 1], [at, rng.integers(0, 3, kind.shape[0])],
                    (at == np.repeat(rng.integers(0, sizes), sizes)).astype(np.int64))
    want, attempts = numpy_picks(seed, keys, starts, sizes, ids)
    got = pivot_picks(seed, keys, starts, sizes, ids, splits.INIT_ATTEMPTS)
    assert got.dtype == np.int64 and got.shape == (n, 2)
    assert np.array_equal(got, want)
    assert set(attempts[want[:, 0] >= 0].tolist()) == set(range(1, splits.INIT_ATTEMPTS + 1))
    assert (want[:, 0] < 0).sum() > 100


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**63 - 1])
def test_pivot_draws_near_two_to_the_32(seed):
    # Lemire's draw rejects up to half of its outputs for sizes just above
    # 2**31, and the size 2**32 takes b from next_uint32 whole
    sizes = np.tile(np.array([2**32, 2**32 - 1, 2**32 - 2, 2**31 + 1, 2**31 + 2,
                              3 * 2**30 + 7, 2**31, 5], dtype=np.int64), 125)
    keys = np.arange(1, sizes.shape[0] + 1) * 7919
    starts = np.arange(sizes.shape[0]) * 11
    ids = HashedIds(2**40)
    want, attempts = numpy_picks(seed, keys, starts, sizes, ids)
    assert np.array_equal(pivot_picks(seed, keys, starts, sizes, ids, splits.INIT_ATTEMPTS),
                          want)
    assert attempts.max() > 1
    # a size-(2**31 + 2) node's first draw, on 2**31 + 1 values, rejects the
    # low half of the generator's first output when its product's low word
    # falls below 2**32 mod (2**31 + 1)
    excl = 2**31 + 1
    first = [np.random.PCG64(np.random.SeedSequence([seed % 2**63, k])).random_raw()
             & 0xFFFFFFFF for k in keys[sizes == 2**31 + 2].tolist()]
    assert sum(u * excl % 2**32 < 2**32 % excl for u in first) > 20


class Positions:
    """ids equal to their positions: every first draw is accepted."""

    def __getitem__(self, at):
        return at


# (seed, key, m): the first pair numpy 2.4's
# default_rng(SeedSequence([seed, key])).choice(m, 2, replace=False) draws,
# pinned so that a change in numpy's streams cannot redefine the partitions
PINNED_DRAWS = {
    (0, 1, 2): (0, 1),
    (0, 2, 2): (1, 0),
    (0, 2, 3): (0, 1),
    (0, 5, 1000): (695, 382),
    (7, 12345, 10): (9, 3),
    (2**32 - 1, 6, 64): (5, 33),
    (2**32, 3, 17): (1, 15),
    (2**63 - 1, 2**40 + 1, 2**31 + 1): (1460400998, 453657436),
    (12, 2**64 - 1, 2**32): (1788123893, 2951216052),
}


def test_pivot_draws_pinned():
    for (seed, key, m), pair in PINNED_DRAWS.items():
        got = pivot_picks(seed, np.array([key], dtype=np.uint64), np.zeros(1, np.int64),
                          np.array([m]), Positions(), 1)
        assert tuple(got[0].tolist()) == pair, (seed, key, m)
    # seed 3, rows of ids 0 but the last: keys 1 to 11 take 6 (and fail), 6,
    # 3, 1, 2, 6, 6, 3, 1, 3 and 4 attempts
    ids = np.array([0] * 7 + [1])
    got = pivot_picks(3, np.arange(1, 12), np.zeros(11, np.int64), np.full(11, 8), ids,
                      splits.INIT_ATTEMPTS)
    assert got.tolist() == [[-1, -1], [-1, -1], [7, 1], [0, 7], [6, 7], [-1, -1], [-1, -1],
                            [7, 2], [7, 2], [2, 7], [7, 0]]


@pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1, -1])
@pytest.mark.parametrize("first", [0, 2**32 - 2, 2**40 + 3])
def test_sample_orders_equal_numpy(seed, first):
    # one-word and two-word seeds and keys, and label ranges across 2**32
    keys = np.arange(first, first + 5)
    for n, epochs in itertools.product([0, 1, 2, 350], [1, 3]):
        got = kernels.sample_orders(seed, keys, n, epochs)
        assert got.dtype == np.int64 and got.shape == (5, epochs, n)
        for key, orders in zip(keys.tolist(), got):
            rng = np.random.default_rng(np.random.SeedSequence([seed % 2**63, key]))
            for order in orders:
                assert np.array_equal(order, rng.permutation(n))


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


@settings(max_examples=200, deadline=None)
@given(csr_with_repeats())
def test_rows_differ_equals_pairwise_compare(csr):
    # every ordered pair of rows, itself included: a row holding a NaN
    # differs even from itself
    m = SparseMatrix(csr[0].shape[0] - 1, 5, *csr, validate=False)
    a, b = np.divmod(np.arange(m.rows ** 2), m.rows)
    got = splits._rows_differ(m, a.reshape(m.rows, m.rows), b.reshape(m.rows, m.rows))
    assert got.dtype == bool and got.shape == (m.rows, m.rows)
    want = [not tree_reference.rows_equal(m, i, j) for i, j in zip(a.tolist(), b.tolist())]
    assert got.ravel().tolist() == want
