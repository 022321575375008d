"""Hot numeric kernels over raw CSR arrays.

Every kernel ships in two flavours: a numba ``@njit`` loop (fast path) and a
vectorized pure-numpy fallback. ``FEATAGG_BACKEND`` picks one at import time:
``numba``, ``numpy`` or ``auto`` (default; numba when importable). Both
flavours stay importable through the ``IMPLS`` registry so the benchmark can
time them side by side.

All kernels take (indptr, indices, values) CSR triples with int64 indices and
float64 values; callers are responsible for dtype discipline.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

_REQUESTED = os.environ.get("FEATAGG_BACKEND", "auto").strip().lower()
if _REQUESTED not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"FEATAGG_BACKEND must be 'auto', 'numba' or 'numpy', got {_REQUESTED!r}"
    )
if _REQUESTED == "numba" and not HAVE_NUMBA:
    raise ImportError("FEATAGG_BACKEND=numba but numba is not importable")

USE_NUMBA = HAVE_NUMBA if _REQUESTED == "auto" else _REQUESTED == "numba"


def backend_name() -> str:
    """Name of the active kernel backend ('numba' or 'numpy')."""
    return "numba" if USE_NUMBA else "numpy"


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) into one flat index array."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seq = np.arange(total, dtype=np.int64)
    shift = np.repeat(np.cumsum(lens) - lens, lens)
    return seq - shift + np.repeat(starts, lens)


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
# row_dots: per-row dot product with a dense vector
# ---------------------------------------------------------------------------


def _row_dots_numpy(indptr, indices, values, dense):
    nrows = indptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.float64)
    if indices.shape[0] == 0:
        return out
    prods = values * dense[indices]
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.shape[0]:
        out[nonempty] = np.add.reduceat(prods, indptr[nonempty])
    return out


def _row_dots_loop(indptr, indices, values, dense):
    nrows = indptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.float64)
    for r in range(nrows):
        acc = 0.0
        for t in range(indptr[r], indptr[r + 1]):
            acc += values[t] * dense[indices[t]]
        out[r] = acc
    return out


# ---------------------------------------------------------------------------
# sum_rows / weighted_sum_rows: dense accumulation of selected rows
# ---------------------------------------------------------------------------


def _sum_rows_numpy(indptr, indices, values, rows, dim):
    flat = concat_ranges(indptr[rows], indptr[rows + 1])
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    return np.bincount(indices[flat], weights=values[flat], minlength=dim)


def _sum_rows_loop(indptr, indices, values, rows, dim):
    out = np.zeros(dim, dtype=np.float64)
    for k in range(rows.shape[0]):
        r = rows[k]
        for t in range(indptr[r], indptr[r + 1]):
            out[indices[t]] += values[t]
    return out


def _weighted_sum_rows_numpy(indptr, indices, values, rows, weights, dim):
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = concat_ranges(starts, ends)
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    wrep = np.repeat(weights, ends - starts)
    return np.bincount(indices[flat], weights=values[flat] * wrep, minlength=dim)


def _weighted_sum_rows_loop(indptr, indices, values, rows, weights, dim):
    out = np.zeros(dim, dtype=np.float64)
    for k in range(rows.shape[0]):
        r = rows[k]
        w = weights[k]
        for t in range(indptr[r], indptr[r + 1]):
            out[indices[t]] += w * values[t]
    return out


# ---------------------------------------------------------------------------
# transpose_csr: CSR -> CSR of the transpose (counting sort on columns)
# ---------------------------------------------------------------------------


def _transpose_csr_numpy(indptr, indices, values, nrows, ncols):
    order = np.argsort(indices, kind="stable")
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(indices, minlength=ncols)
    t_indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return t_indptr, row_of[order], values[order]


def _transpose_csr_loop(indptr, indices, values, nrows, ncols):
    nnz = indices.shape[0]
    counts = np.zeros(ncols + 1, dtype=np.int64)
    for t in range(nnz):
        counts[indices[t] + 1] += 1
    t_indptr = np.cumsum(counts)
    fill = t_indptr[:-1].copy()
    t_indices = np.empty(nnz, dtype=np.int64)
    t_values = np.empty(nnz, dtype=np.float64)
    for r in range(nrows):
        for t in range(indptr[r], indptr[r + 1]):
            c = indices[t]
            pos = fill[c]
            t_indices[pos] = r
            t_values[pos] = values[t]
            fill[c] = pos + 1
    return t_indptr, t_indices, t_values


# ---------------------------------------------------------------------------
# agglomerate_csr: merge columns by cluster id, summing (or averaging) values
# ---------------------------------------------------------------------------
# divisors: per-cluster denominators for AVERAGE mode; length-0 array means SUM.


def _agglomerate_csr_numpy(indptr, indices, values, cluster_of, n_clusters, divisors):
    nrows = indptr.shape[0] - 1
    nnz = indices.shape[0]
    if nnz == 0:
        return np.zeros(nrows + 1, dtype=np.int64), indices.copy(), values.copy()
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    newcol = cluster_of[indices]
    order = np.lexsort((newcol, row_of))
    r = row_of[order]
    c = newcol[order]
    v = values[order]
    first = np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1])))
    seg = np.cumsum(first) - 1
    sums = np.bincount(seg, weights=v)
    seg_r = r[first]
    seg_c = c[first]
    if divisors.shape[0]:
        sums = sums / divisors[seg_c]
    keep = sums != 0.0
    seg_r = seg_r[keep]
    out_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(seg_r, minlength=nrows), dtype=np.int64))
    )
    return out_indptr, seg_c[keep], sums[keep]


def _agglomerate_csr_loop(indptr, indices, values, cluster_of, n_clusters, divisors):
    nrows = indptr.shape[0] - 1
    nnz = indices.shape[0]
    average = divisors.shape[0] != 0
    scratch = np.zeros(n_clusters, dtype=np.float64)
    mark = np.full(n_clusters, -1, dtype=np.int64)
    touched = np.empty(n_clusters, dtype=np.int64)
    out_indptr = np.zeros(nrows + 1, dtype=np.int64)
    out_indices = np.empty(nnz, dtype=np.int64)
    out_values = np.empty(nnz, dtype=np.float64)
    pos = 0
    for row in range(nrows):
        ntouch = 0
        for t in range(indptr[row], indptr[row + 1]):
            k = cluster_of[indices[t]]
            if mark[k] != row:
                mark[k] = row
                scratch[k] = 0.0
                touched[ntouch] = k
                ntouch += 1
            scratch[k] += values[t]
        hit = np.sort(touched[:ntouch])
        for i in range(ntouch):
            k = hit[i]
            s = scratch[k]
            if average:
                s = s / divisors[k]
            if s != 0.0:
                out_indices[pos] = k
                out_values[pos] = s
                pos += 1
        out_indptr[row + 1] = pos
    return out_indptr, out_indices[:pos], out_values[:pos]


# ---------------------------------------------------------------------------
# cooc_accumulate: per-cluster dense blocks of sum-of-outer-products
# ---------------------------------------------------------------------------


def _cooc_accumulate_numpy(
    indptr, indices, values, cluster_of, offset_of, block_start, sizes, flat
):
    nrows = indptr.shape[0] - 1
    for row in range(nrows):
        s, e = indptr[row], indptr[row + 1]
        if e == s:
            continue
        cl = cluster_of[indices[s:e]]
        order = np.argsort(cl, kind="stable")
        cl = cl[order]
        off = offset_of[indices[s:e]][order]
        val = values[s:e][order]
        cuts = np.flatnonzero(cl[1:] != cl[:-1]) + 1
        for lo, hi in zip(
            np.concatenate(([0], cuts)), np.concatenate((cuts, [cl.shape[0]]))
        ):
            k = cl[lo]
            dk = sizes[k]
            block = flat[block_start[k] : block_start[k] + dk * dk].reshape(dk, dk)
            sub_off = off[lo:hi]
            block[np.ix_(sub_off, sub_off)] += np.outer(val[lo:hi], val[lo:hi])


def _cooc_accumulate_loop(
    indptr, indices, values, cluster_of, offset_of, block_start, sizes, flat
):
    nrows = indptr.shape[0] - 1
    for row in range(nrows):
        s, e = indptr[row], indptr[row + 1]
        m = e - s
        if m == 0:
            continue
        cl = np.empty(m, dtype=np.int64)
        off = np.empty(m, dtype=np.int64)
        val = np.empty(m, dtype=np.float64)
        for t in range(m):
            j = indices[s + t]
            cl[t] = cluster_of[j]
            off[t] = offset_of[j]
            val[t] = values[s + t]
        order = np.argsort(cl, kind="mergesort")
        lo = 0
        while lo < m:
            hi = lo
            k = cl[order[lo]]
            while hi < m and cl[order[hi]] == k:
                hi += 1
            base = block_start[k]
            dk = sizes[k]
            for a in range(lo, hi):
                oa = off[order[a]]
                va = val[order[a]]
                for b in range(lo, hi):
                    flat[base + oa * dk + off[order[b]]] += va * val[order[b]]
            lo = hi


# ---------------------------------------------------------------------------
# ova_sgd: per-sample logistic SGD for a block of B binary labels, L2 via the
# scale trick. sign is (B, n): +1/-1 per label and sample. order holds each
# label's sample order, flattened label-major (label l's steps are
# order[l*T:(l+1)*T] with T = len(order) // B), so len(order) stays the number
# of SGD steps. The learning rate decays per epoch, lr_e = lr / (1 + decay * e),
# with epoch_len samples per epoch. Returns (weights (B, dim), bias (B,)).
# Every label follows the loop flavour's arithmetic exactly, so the numpy
# flavour's results are bit-identical to it.
# ---------------------------------------------------------------------------


def _ova_sgd_numpy(indptr, indices, values, sign, order, dim, lr, l2, decay,
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
        # bincount adds each row's products in stored order, as the loop does
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
        # a label whose gradient is 0 makes no update, as in the loop
        hit = g != 0.0
        if not hit.all():
            keep = hit[lab]
            key, val, lab = key[keep], val[keep], lab[keep]
        # (label, feature) keys within one step are unique (CSR rows hold
        # each column once), so a fancy-indexed subtract applies every update
        wflat[key] -= (step_lr * g / scale)[lab] * val
        bias[hit] -= step_lr * g[hit]
    return w * scale, bias


def _ova_sgd_loop(indptr, indices, values, sign, order, dim, lr, l2, decay,
                  epoch_len):
    n_labels = sign.shape[0]
    w = np.zeros((n_labels, dim), dtype=np.float64)
    bias = np.zeros(n_labels, dtype=np.float64)
    steps = order.shape[0] // n_labels
    for l in range(n_labels):
        b = 0.0
        scale = 1.0
        for p in range(steps):
            i = order[l * steps + p]
            step_lr = lr / (1.0 + decay * (p // epoch_len))
            dot = 0.0
            for t in range(indptr[i], indptr[i + 1]):
                dot += w[l, indices[t]] * values[t]
            margin = sign[l, i] * (scale * dot + b)
            if margin > 35.0:
                g = 0.0
            else:
                g = -sign[l, i] / (1.0 + np.exp(margin))
            scale *= 1.0 - step_lr * l2
            if scale < 1e-9:
                for j in range(dim):
                    w[l, j] *= scale
                scale = 1.0
            if g != 0.0:
                step = step_lr * g / scale
                for t in range(indptr[i], indptr[i + 1]):
                    w[l, indices[t]] -= step * values[t]
                b -= step_lr * g
        for j in range(dim):
            w[l, j] *= scale
        bias[l] = b
    return w, bias


# ---------------------------------------------------------------------------
# score_rows: dense (n_labels x dim) weight matrix applied to every CSR row
# ---------------------------------------------------------------------------


def _score_rows_numpy(indptr, indices, values, weights, bias):
    nrows = indptr.shape[0] - 1
    out = np.empty((nrows, weights.shape[0]), dtype=np.float64)
    for r in range(nrows):
        s, e = indptr[r], indptr[r + 1]
        if e > s:
            out[r] = weights[:, indices[s:e]] @ values[s:e] + bias
        else:
            out[r] = bias
    return out


def _score_rows_loop(indptr, indices, values, weights, bias):
    nrows = indptr.shape[0] - 1
    n_labels = weights.shape[0]
    out = np.empty((nrows, n_labels), dtype=np.float64)
    for r in range(nrows):
        for l in range(n_labels):
            acc = bias[l]
            for t in range(indptr[r], indptr[r + 1]):
                acc += weights[l, indices[t]] * values[t]
            out[r, l] = acc
    return out


# ---------------------------------------------------------------------------
# mi_accumulate: mutual-information sum over the nonzeros of the joint matrix
# ---------------------------------------------------------------------------


# Expanded (feature, label) pairs per block of features in the numpy flavour;
# bounds its scratch memory independently of the input size.
_MI_BLOCK_PAIRS = 1 << 14


def _mi_accumulate_numpy(
    zt_indptr, zt_indices, zt_values, y_indptr, y_indices, row_sums, col_sums, total
):
    # Per block of features: expand each Z^T nonzero over its point's labels,
    # coalesce equal (feature, label) keys into joint entries, sum the terms.
    n_features = zt_indptr.shape[0] - 1
    n_labels = col_sums.shape[0]
    y_lens = np.diff(y_indptr)
    # expanded pairs before each feature's first nonzero
    before = np.concatenate(([0], np.cumsum(y_lens[zt_indices])))[zt_indptr]
    mi = 0.0
    lo = 0
    while lo < n_features:
        # widest feature range [lo, hi) within the pair budget, at least one
        hi = np.searchsorted(before, before[lo] + _MI_BLOCK_PAIRS, side="right") - 1
        hi = max(int(hi), lo + 1)
        s, e = zt_indptr[lo], zt_indptr[hi]
        feat = np.repeat(np.arange(lo, hi), np.diff(zt_indptr[lo : hi + 1]))
        keep = row_sums[feat] != 0.0
        feat, pts, zv = feat[keep], zt_indices[s:e][keep], zt_values[s:e][keep]
        reps = y_lens[pts]
        labels = y_indices[concat_ranges(y_indptr[pts], y_indptr[pts + 1])]
        key = np.repeat(feat - lo, reps) * n_labels + labels
        uniq, inverse = np.unique(key, return_inverse=True)
        p = np.bincount(inverse, weights=np.repeat(zv, reps))
        nz = p > 0.0
        p, j, l = p[nz], uniq[nz] // n_labels + lo, uniq[nz] % n_labels
        mi += float(np.sum(p * (np.log(p * total) - np.log(row_sums[j] * col_sums[l]))))
        lo = hi
    return mi / total


def _mi_accumulate_loop(
    zt_indptr, zt_indices, zt_values, y_indptr, y_indices, row_sums, col_sums, total
):
    n_features = zt_indptr.shape[0] - 1
    n_labels = col_sums.shape[0]
    mi = 0.0
    scratch = np.zeros(n_labels, dtype=np.float64)
    mark = np.full(n_labels, -1, dtype=np.int64)
    touched = np.empty(n_labels, dtype=np.int64)
    for j in range(n_features):
        if row_sums[j] == 0.0:
            continue
        ntouch = 0
        for t in range(zt_indptr[j], zt_indptr[j + 1]):
            i = zt_indices[t]
            zv = zt_values[t]
            for u in range(y_indptr[i], y_indptr[i + 1]):
                l = y_indices[u]
                if mark[l] != j:
                    mark[l] = j
                    scratch[l] = 0.0
                    touched[ntouch] = l
                    ntouch += 1
                scratch[l] += zv
        for q in range(ntouch):
            l = touched[q]
            p = scratch[l]
            if p > 0.0:
                mi += p * (np.log(p * total) - np.log(row_sums[j] * col_sums[l]))
    return mi / total


# ---------------------------------------------------------------------------
# backend registry / dispatch
# ---------------------------------------------------------------------------

_LOOP_IMPLS = {
    "row_dots": _row_dots_loop,
    "sum_rows": _sum_rows_loop,
    "weighted_sum_rows": _weighted_sum_rows_loop,
    "transpose_csr": _transpose_csr_loop,
    "agglomerate_csr": _agglomerate_csr_loop,
    "cooc_accumulate": _cooc_accumulate_loop,
    "ova_sgd": _ova_sgd_loop,
    "score_rows": _score_rows_loop,
    "mi_accumulate": _mi_accumulate_loop,
}

IMPLS: dict[str, dict] = {
    "numpy": {
        "row_dots": _row_dots_numpy,
        "sum_rows": _sum_rows_numpy,
        "weighted_sum_rows": _weighted_sum_rows_numpy,
        "transpose_csr": _transpose_csr_numpy,
        "agglomerate_csr": _agglomerate_csr_numpy,
        "cooc_accumulate": _cooc_accumulate_numpy,
        "ova_sgd": _ova_sgd_numpy,
        "score_rows": _score_rows_numpy,
        "mi_accumulate": _mi_accumulate_numpy,
    }
}

if HAVE_NUMBA:
    # nogil lets callers fan independent kernel calls out over a thread pool
    IMPLS["numba"] = {
        name: njit(cache=True, nogil=True)(fn) for name, fn in _LOOP_IMPLS.items()
    }

_ACTIVE = IMPLS["numba"] if USE_NUMBA else IMPLS["numpy"]

row_dots = _ACTIVE["row_dots"]
sum_rows = _ACTIVE["sum_rows"]
weighted_sum_rows = _ACTIVE["weighted_sum_rows"]
transpose_csr = _ACTIVE["transpose_csr"]
agglomerate_csr = _ACTIVE["agglomerate_csr"]
cooc_accumulate = _ACTIVE["cooc_accumulate"]
ova_sgd = _ACTIVE["ova_sgd"]
score_rows = _ACTIVE["score_rows"]
mi_accumulate = _ACTIVE["mi_accumulate"]
