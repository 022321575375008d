"""Hot numeric kernels over raw CSR arrays.

Each kernel has one numpy implementation; only ``ova_sgd`` (over its
sequential steps) and ``score_rows`` (one BLAS product per row) loop in
Python. ``sparse_product`` is the one product A B behind representatives,
prototypes, label mutual information and rerank affinities.
``tests/kernel_reference.py`` holds a plain-Python loop per kernel that
spells out the same arithmetic, and the tests compare the two; the ordering
kernels (``rank_within``, ``group_order``, ``row_ids``) are compared with
``np.lexsort`` and ``np.array_equal`` instead.

All kernels take (indptr, indices, values) CSR triples with int64 indices and
float64 values; callers are responsible for dtype discipline.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) into one flat index array."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # entry t of the output, in range i, is t + starts[i] - (entries before range i)
    shift = starts - (np.cumsum(lens) - lens)
    return np.arange(total, dtype=np.int64) + np.repeat(shift, lens)


def chunk_ranges(ends, budget):
    """Consecutive ranges [lo, hi) of rows, each the widest whose cost
    ends[hi] - ends[lo] is at most budget, or one row; ends holds the
    cumulative cost before each row and after the last, like an indptr."""
    lo = 0
    while lo < ends.shape[0] - 1:
        hi = max(int(np.searchsorted(ends, ends[lo] + budget, "right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


def take_rows(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract a row subset as a compact CSR triple (row order preserved)."""
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = concat_ranges(starts, ends)
    sub_indptr = np.concatenate(
        ([0], np.cumsum(ends - starts, dtype=np.int64))
    )
    return sub_indptr, indices[flat], values[flat]


# ---------------------------------------------------------------------------
# rank_within / group_order / row_ids: the ordering kernels, exact
# replacements for np.lexsort on two keys and for pairwise row compares
# ---------------------------------------------------------------------------


def rank_within(group, values):
    """Positions by ascending group, then decreasing value, ties in position
    order, as np.lexsort((-values, group)) gives them: one stable argsort of
    complex keys, which order by real part, then imaginary part.

    group is an integer array below 2**53 in magnitude (exact as a float), or
    a scalar for one group. A NaN value ranks last in its group.
    """
    key = np.empty(values.shape[0], dtype=np.complex128)
    nan = np.isnan(values)
    if nan.any():
        # complex order puts a NaN imaginary part after every other key, so
        # rank NaN values on the real part: after their group's numbers
        key.real = 2 * np.asarray(group) + nan
        key.imag = np.where(nan, 0.0, -values)
    else:
        key.real = group
        key.imag = -values
    return np.argsort(key, kind="stable")


def group_order(group, key):
    """Positions by ascending group, then ascending key, ties in position
    order, as np.lexsort((key, group)) gives them, for int64 arrays (group
    may be a scalar, for one group).

    One stable argsort of (group - min) * span + (key - min), cast to the
    narrowest unsigned type that holds it: composite keys below 2**16 take
    numpy's radix sort. np.lexsort runs only when that key would overflow
    int64.
    """
    key = np.asarray(key)
    if key.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    group = np.asarray(group)
    k_lo, k_hi = int(key.min()), int(key.max())
    g_lo, g_hi = (int(group.min()), int(group.max())) if group.ndim else (0, 0)
    span = k_hi - k_lo + 1
    top = (g_hi - g_lo) * span + span - 1
    if top > np.iinfo(np.int64).max:
        return np.lexsort((key, np.broadcast_to(group, key.shape)))
    composite = np.subtract(key, k_lo, dtype=np.int64)
    if g_hi > g_lo:
        composite += (group - g_lo) * span
    return np.argsort(composite.astype(np.min_scalar_type(top)), kind="stable")


def _mix(x):
    """splitmix64's finalizer on uint64 arrays (wrapping arithmetic)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def row_ids(indptr, indices, values):
    """One id per CSR row: the first row whose indices and values equal its
    own under np.array_equal, so -0.0 equals 0.0 and a row holding a NaN
    equals no other row.

    O(nnz): rows are hashed, each row is compared entry by entry with the
    first row of its hash, and only rows that differ from it (a hash
    collision) go round again.
    """
    nrows = indptr.shape[0] - 1
    lens = np.diff(indptr)
    # a row's hash: its length and the wrapping sum of its entries' hashes
    bits = (values + 0.0).view(np.uint64)  # + 0.0 turns -0.0 into 0.0
    entry = _mix(bits ^ _mix(indices.astype(np.uint64)))
    sums = np.concatenate((np.zeros(1, np.uint64), np.cumsum(entry, dtype=np.uint64)))
    row_hash = _mix(sums[indptr[1:]] - sums[indptr[:-1]] + lens.astype(np.uint64))
    ids = np.arange(nrows, dtype=np.int64)
    pending = np.ones(nrows, dtype=bool)
    pending[np.repeat(ids, lens)[np.isnan(values)]] = False
    pending = np.flatnonzero(pending)
    while pending.shape[0]:
        at = pending[np.argsort(row_hash[pending], kind="stable")]
        h = row_hash[at]
        first = np.concatenate(([True], h[1:] != h[:-1]))
        head = at[np.flatnonzero(first)[np.cumsum(first) - 1]][~first]
        rest = at[~first]
        # each row's entries against its hash's first row's; rows of unequal
        # length differ
        cand = np.flatnonzero(lens[rest] == lens[head])
        r, hr = rest[cand], head[cand]
        a = concat_ranges(indptr[r], indptr[r + 1])
        b = concat_ranges(indptr[hr], indptr[hr + 1])
        differ = (indices[a] != indices[b]) | (values[a] != values[b])
        n_differ = np.bincount(np.repeat(np.arange(cand.shape[0]), lens[r]),
                               weights=differ, minlength=cand.shape[0])
        equal = np.zeros(rest.shape[0], dtype=bool)
        equal[cand[n_differ == 0]] = True
        ids[rest[equal]] = head[equal]
        # the first row of a hash is the first of its own rows: what is left
        # goes round again in row order
        pending = np.sort(rest[~equal])
    return ids


# ---------------------------------------------------------------------------
# row_dots: per-row dot product with a dense vector
# ---------------------------------------------------------------------------


def row_dots(indptr, indices, values, dense):
    nrows = indptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.float64)
    if indices.shape[0] == 0:
        return out
    prods = values * dense[indices]
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.shape[0]:
        out[nonempty] = np.add.reduceat(prods, indptr[nonempty])
    return out


# ---------------------------------------------------------------------------
# sum_rows / weighted_sum_rows: dense accumulation of selected rows
# ---------------------------------------------------------------------------


def sum_rows(indptr, indices, values, rows, dim):
    flat = concat_ranges(indptr[rows], indptr[rows + 1])
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    return np.bincount(indices[flat], weights=values[flat], minlength=dim)


def weighted_sum_rows(indptr, indices, values, rows, weights, dim):
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = concat_ranges(starts, ends)
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    wrep = np.repeat(weights, ends - starts)
    return np.bincount(indices[flat], weights=values[flat] * wrep, minlength=dim)


# ---------------------------------------------------------------------------
# transpose_csr: CSR -> CSR of the transpose (counting sort on columns)
# ---------------------------------------------------------------------------


def transpose_csr(indptr, indices, values, nrows, ncols):
    # column ids narrowed as group_order narrows keys: radix sort below 2**16
    cols = indices.astype(np.min_scalar_type(max(ncols - 1, 0)))
    order = np.argsort(cols, kind="stable")
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(indices, minlength=ncols)
    t_indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return t_indptr, row_of[order], values[order]


# ---------------------------------------------------------------------------
# coalesce: CSR from (row, column) keys, equal keys summed
# ---------------------------------------------------------------------------


def coalesce(keys, values, nrows, ncols):
    """CSR triple of the entries at keys = row * ncols + column: the values at
    one key are summed in input order, exact zeros dropped."""
    keys, slot = np.unique(keys, return_inverse=True)
    sums = np.bincount(slot, weights=values, minlength=keys.shape[0])
    keep = sums != 0.0
    keys = keys[keep]
    counts = np.bincount(keys // ncols, minlength=nrows)
    return np.concatenate(([0], np.cumsum(counts))), keys % ncols, sums[keep]


# ---------------------------------------------------------------------------
# sparse_product: CSR of A B from the CSR triples of A and B
# ---------------------------------------------------------------------------


def sparse_product(a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                   ncols):
    """CSR triple of A B, B with ncols columns: entry (r, c) sums
    a[r, i] * b[i, c] over row r's stored entries in stored order (see
    coalesce, which also drops exact zeros)."""
    nrows = a_indptr.shape[0] - 1
    starts, ends = b_indptr[a_indices], b_indptr[a_indices + 1]
    reps = ends - starts
    flat = concat_ranges(starts, ends)
    row = np.repeat(np.repeat(np.arange(nrows, dtype=np.int64), np.diff(a_indptr)), reps)
    return coalesce(row * ncols + b_indices[flat],
                    np.repeat(a_values, reps) * b_values[flat], nrows, ncols)


# ---------------------------------------------------------------------------
# agglomerate_csr: merge columns by cluster id, summing (or averaging) values
# ---------------------------------------------------------------------------
# divisors: per-cluster denominators for AVERAGE mode; length-0 array means SUM.


def agglomerate_csr(indptr, indices, values, cluster_of, n_clusters, divisors):
    nrows = indptr.shape[0] - 1
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    out = coalesce(row_of * n_clusters + cluster_of[indices], values, nrows, n_clusters)
    if divisors.shape[0]:
        # a quotient can underflow to 0: coalesce once more to drop it
        out_indptr, cols, sums = out
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(out_indptr))
        out = coalesce(row_of * n_clusters + cols, sums / divisors[cols], nrows,
                       n_clusters)
    return out


# ---------------------------------------------------------------------------
# cooc_accumulate / block_apply: the co-occurrence blocks in one flat array;
# cluster k's starts at block_start[k], feature j is row/column offset_of[j]
# ---------------------------------------------------------------------------


# Nonzeros per chunk of rows (a chunk always holds at least one row); bounds
# the scratch to this many entries times the largest cluster size, whatever
# the number of rows or features.
_COOC_CHUNK_NNZ = 1 << 11


def cooc_accumulate(
    indptr, indices, values, cluster_of, offset_of, block_start, sizes, flat
):
    # Per chunk of rows: sort the nonzeros by (row, cluster), expand every
    # within-group pair (a, b) and add v_a * v_b at its block entry in flat.
    # A row holds each feature once, so each entry gets at most one update per
    # row; np.add.at applies them in order, i.e. row by row as the
    # reference loop does.
    for lo, hi in chunk_ranges(indptr, _COOC_CHUNK_NNZ):
        s, e = indptr[lo], indptr[hi]
        row = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        cl = cluster_of[indices[s:e]]
        order = group_order(row, cl)  # stable: stored order within a group
        row, cl = row[order], cl[order]
        off = offset_of[indices[s:e]][order]
        val = values[s:e][order]
        new = np.ones(row.shape[0], dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (cl[1:] != cl[:-1])
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        starts, ends = first[seg], np.append(first[1:], row.shape[0])[seg]
        b = concat_ranges(starts, ends)
        reps = ends - starts
        base = block_start[cl] + off * sizes[cl]
        np.add.at(flat, np.repeat(base, reps) + off[b], np.repeat(val, reps) * val[b])


def block_apply(
    indptr, indices, values, cluster_of, offset_of, members, member_start,
    block_start, flat
):
    """Rows of C x^T for the CSR rows x, as a CSR triple (see coalesce).

    Cluster k holds the features members[member_start[k]:member_start[k + 1]].
    Each stored entry (b, v_b) adds C[a, b] * v_b at every member a of its
    cluster, so a row costs O(nnz * d0) whatever the number of features.
    """
    d = cluster_of.shape[0]
    counts, cols, sums = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for lo, hi in chunk_ranges(indptr, _COOC_CHUNK_NNZ):
        s, e = indptr[lo], indptr[hi]
        cl = cluster_of[indices[s:e]]
        size = member_start[cl + 1] - member_start[cl]
        a = concat_ranges(np.zeros_like(size), size)  # each term's member offset
        # C[a, b] sits at block_start + a * size + b in the row-major block
        at = (np.repeat(block_start[cl] + offset_of[indices[s:e]], size)
              + a * np.repeat(size, size))
        row = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        key = np.repeat(row, size) * d + members[np.repeat(member_start[cl], size) + a]
        chunk = coalesce(key, flat[at] * np.repeat(values[s:e], size), hi - lo, d)
        counts.append(np.diff(chunk[0]))
        cols.append(chunk[1])
        sums.append(chunk[2])
    return (np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
            np.concatenate(cols), np.concatenate(sums))


# ---------------------------------------------------------------------------
# ova_sgd: per-sample logistic SGD for a block of B binary labels, L2 via the
# scale trick. sign is (B, n): +1/-1 per label and sample. order holds each
# label's sample order, flattened label-major (label l's steps are
# order[l*T:(l+1)*T] with T = len(order) // B), so len(order) stays the number
# of SGD steps. The learning rate decays per epoch, lr_e = lr / (1 + decay * e),
# with epoch_len samples per epoch. Returns (weights (B, dim), bias (B,)).
# Every label follows the reference loop's arithmetic exactly, so results are
# bit-identical to it.
# ---------------------------------------------------------------------------


def ova_sgd(indptr, indices, values, sign, order, dim, lr, l2, decay,
            epoch_len):
    # One iteration per step p, updating all B labels at once: lr, l2 and
    # decay do not depend on the label, so the L2 scale is one shared scalar.
    n_labels = sign.shape[0]
    w = np.zeros((n_labels, dim), dtype=np.float64)
    bias = np.zeros(n_labels, dtype=np.float64)
    wflat = w.reshape(-1)
    rows_at = order.reshape(n_labels, -1)
    labels = np.arange(n_labels)
    scale = 1.0
    for p in range(rows_at.shape[1]):
        step_lr = lr / (1.0 + decay * (p // epoch_len))
        rows = rows_at[:, p]
        starts, ends = indptr[rows], indptr[rows + 1]
        flat = concat_ranges(starts, ends)
        lab = np.repeat(labels, ends - starts)
        key = lab * dim + indices[flat]
        val = values[flat]
        # bincount adds each row's products in stored order, as the reference
        # loop does
        dots = np.bincount(lab, weights=wflat[key] * val, minlength=n_labels)
        sgn = sign[labels, rows]
        margin = sgn * (scale * dots + bias)
        # clipping only changes margins above 35, whose gradient is taken as 0
        g = np.where(margin > 35.0, 0.0,
                     -sgn / (1.0 + np.exp(np.minimum(margin, 35.0))))
        scale *= 1.0 - step_lr * l2
        if scale < 1e-9:
            w *= scale
            scale = 1.0
        # a label whose gradient is 0 makes no update, as in the reference loop
        hit = g != 0.0
        if not hit.all():
            keep = hit[lab]
            key, val, lab = key[keep], val[keep], lab[keep]
        # (label, feature) keys within one step are unique (CSR rows hold
        # each column once), so a fancy-indexed subtract applies every update
        wflat[key] -= (step_lr * g / scale)[lab] * val
        bias[hit] -= step_lr * g[hit]
    return w * scale, bias


# ---------------------------------------------------------------------------
# score_rows: dense (n_labels x dim) weight matrix applied to every CSR row
# ---------------------------------------------------------------------------


def score_rows(indptr, indices, values, weights, bias):
    nrows = indptr.shape[0] - 1
    out = np.empty((nrows, weights.shape[0]), dtype=np.float64)
    for r in range(nrows):
        s, e = indptr[r], indptr[r + 1]
        if e > s:
            out[r] = weights[:, indices[s:e]] @ values[s:e] + bias
        else:
            out[r] = bias
    return out


# ---------------------------------------------------------------------------
# mi_accumulate: mutual-information sum over the nonzeros of the joint matrix
# ---------------------------------------------------------------------------


# Expanded (feature, label) pairs per block of features; bounds the scratch
# memory independently of the input size.
_MI_BLOCK_PAIRS = 1 << 14


def mi_accumulate(
    zt_indptr, zt_indices, zt_values, y_indptr, y_indices, row_sums, col_sums, total
):
    # Per block of features: the block's rows of the joint Z^T Y (Y as its 0/1
    # pattern), then the terms of its positive entries whose feature has mass.
    n_labels = col_sums.shape[0]
    ones = np.ones(y_indices.shape[0])
    # expanded pairs before each feature's first nonzero
    before = np.concatenate(([0], np.cumsum(np.diff(y_indptr)[zt_indices])))[zt_indptr]
    mi = 0.0
    for lo, hi in chunk_ranges(before, _MI_BLOCK_PAIRS):
        s, e = zt_indptr[lo], zt_indptr[hi]
        indptr, l, p = sparse_product(zt_indptr[lo : hi + 1] - s, zt_indices[s:e],
                                      zt_values[s:e], y_indptr, y_indices, ones,
                                      n_labels)
        j = np.repeat(np.arange(lo, hi), np.diff(indptr))
        nz = (p > 0.0) & (row_sums[j] != 0.0)
        p, j, l = p[nz], j[nz], l[nz]
        mi += float(np.sum(p * (np.log(p * total) - np.log(row_sums[j] * col_sums[l]))))
    return mi / total
