"""Both kernel flavours must agree on random CSR inputs.

The loop flavour is the numba-compiled kernel when numba is importable and
the same loop run as plain Python otherwise.
"""

import numpy as np
import pytest

from featagg import kernels


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
    loops = kernels.IMPLS["numba"] if kernels.HAVE_NUMBA else kernels._LOOP_IMPLS
    return kernels.IMPLS["numpy"][name], loops[name]


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


def test_agglomerate_csr(csr, rng):
    cluster_of = rng.integers(0, 5, size=12).astype(np.int64)
    np_fn, nb_fn = impls("agglomerate_csr")
    for divisors in (np.empty(0), rng.uniform(1, 3, size=5)):
        a = np_fn(*csr, cluster_of, 5, divisors)
        b = nb_fn(*csr, cluster_of, 5, divisors)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)


def test_cooc_accumulate(csr, rng):
    perm = rng.permutation(12)
    sizes = np.array([4, 5, 3], dtype=np.int64)
    clusters = np.split(perm, np.cumsum(sizes)[:-1])
    cluster_of = np.empty(12, dtype=np.int64)
    offset_of = np.empty(12, dtype=np.int64)
    for k, cl in enumerate(clusters):
        cluster_of[cl] = k
        offset_of[cl] = np.arange(len(cl))
    block_start = np.concatenate(([0], np.cumsum(sizes * sizes)))[:-1].astype(np.int64)
    total = int((sizes * sizes).sum())
    np_fn, nb_fn = impls("cooc_accumulate")
    flat_a = np.zeros(total)
    flat_b = np.zeros(total)
    np_fn(*csr, cluster_of, offset_of, block_start, sizes, flat_a)
    nb_fn(*csr, cluster_of, offset_of, block_start, sizes, flat_b)
    assert np.allclose(flat_a, flat_b, atol=1e-12)


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
        assert np.allclose(wa, wb, rtol=1e-12, atol=1e-12)
        assert np.allclose(ba, bb, rtol=1e-12, atol=1e-12)
        # run as plain Python, the loop does the same float operations in the
        # same order as the numpy flavour, so the two agree bit for bit
        wc, bc = kernels._LOOP_IMPLS["ova_sgd"](*args)
        assert wa.tobytes() == wc.tobytes() and ba.tobytes() == bc.tobytes()
        if l2 == 0.0:
            row_dots = kernels.IMPLS["numpy"]["row_dots"]
            margins = sign * (np.array([
                row_dots(indptr, indices, values, w) for w in wa
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
    zt = kernels.IMPLS["numpy"]["transpose_csr"](
        z_indptr, z_indices, z_values, n_points, n_features
    )
    ylen = np.diff(y_indptr).astype(np.float64)
    row_sums = kernels.IMPLS["numpy"]["row_dots"](*zt, ylen)
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


def test_backend_name_matches_flag():
    assert kernels.backend_name() in ("numba", "numpy")
    assert kernels.backend_name() == ("numba" if kernels.USE_NUMBA else "numpy")
