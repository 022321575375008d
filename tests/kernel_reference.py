"""Plain-Python reference loops for the kernels in ``featagg.kernels``.

Each function has the name and argument order of the kernel it checks and
spells out its arithmetic one nonzero (or, for the number kernels, one
token or value) at a time. ``tests/test_kernels.py``
compares every numpy kernel with its loop here.
"""

import math
import re
from fractions import Fraction

import numpy as np


def row_dots(indptr, indices, values, dense):
    nrows = indptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.float64)
    for r in range(nrows):
        acc = 0.0
        for t in range(indptr[r], indptr[r + 1]):
            acc += values[t] * dense[indices[t]]
        out[r] = acc
    return out


def sum_rows(indptr, indices, values, rows, dim):
    out = np.zeros(dim, dtype=np.float64)
    for k in range(rows.shape[0]):
        r = rows[k]
        for t in range(indptr[r], indptr[r + 1]):
            out[indices[t]] += values[t]
    return out


def weighted_sum_rows(indptr, indices, values, rows, weights, dim):
    out = np.zeros(dim, dtype=np.float64)
    for k in range(rows.shape[0]):
        r = rows[k]
        w = weights[k]
        for t in range(indptr[r], indptr[r + 1]):
            out[indices[t]] += w * values[t]
    return out


def transpose_csr(indptr, indices, values, nrows, ncols):
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


def sparse_product(a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                   ncols):
    nrows = a_indptr.shape[0] - 1
    out_indptr = np.zeros(nrows + 1, dtype=np.int64)
    out_indices, out_values = [], []
    for r in range(nrows):
        sums = {}
        for t in range(a_indptr[r], a_indptr[r + 1]):
            i = a_indices[t]
            for u in range(b_indptr[i], b_indptr[i + 1]):
                c = int(b_indices[u])
                sums[c] = sums.get(c, 0.0) + a_values[t] * b_values[u]
        for c in sorted(sums):
            if sums[c] != 0.0:
                out_indices.append(c)
                out_values.append(sums[c])
        out_indptr[r + 1] = len(out_indices)
    return (out_indptr, np.array(out_indices, dtype=np.int64),
            np.array(out_values, dtype=np.float64))


def agglomerate_csr(indptr, indices, values, cluster_of, n_clusters, divisors):
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


def cooc_accumulate(
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


def ova_sgd(indptr, indices, values, sign, order, dim, lr, l2, decay,
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


def score_rows(indptr, indices, values, weights, bias):
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


def score_rows_strided(indptr, indices, values, weights, bias):
    """score_rows as it was computed before weights became column-major: a
    gather of each row's columns of the (labels, dim) weights, times the
    row's values, in one BLAS product. Its bytes are what kernels.score_rows
    must keep for weights in either layout."""
    nrows = indptr.shape[0] - 1
    out = np.empty((nrows, weights.shape[0]), dtype=np.float64)
    for r in range(nrows):
        s, e = indptr[r], indptr[r + 1]
        if e > s:
            out[r] = weights[:, indices[s:e]] @ values[s:e] + bias
        else:
            out[r] = bias
    return out


def gather_dots(indptr, indices, values, rows, dense, labels):
    dots = np.zeros(rows.shape[0], dtype=np.float64)
    for t in range(rows.shape[0]):
        acc = 0.0
        for u in range(indptr[rows[t]], indptr[rows[t] + 1]):
            acc += dense[labels[t], indices[u]] * values[u]
        dots[t] = acc
    return dots


def mi_accumulate(
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


def block_apply(
    indptr, indices, values, cluster_of, offset_of, members, member_start,
    block_start, flat
):
    nrows = indptr.shape[0] - 1
    out_indptr = np.zeros(nrows + 1, dtype=np.int64)
    out_indices, out_values = [], []
    for row in range(nrows):
        s, e = indptr[row], indptr[row + 1]
        idx, val = [], []
        # one dense block mat-vec per cluster the row touches
        for k in np.unique(cluster_of[indices[s:e]]):
            lo, hi = member_start[k], member_start[k + 1]
            dk = hi - lo
            xk = np.zeros(dk, dtype=np.float64)
            for t in range(s, e):
                if cluster_of[indices[t]] == k:
                    xk[offset_of[indices[t]]] = values[t]
            block = flat[block_start[k]:block_start[k] + dk * dk].reshape(dk, dk)
            yk = block @ xk
            for a in range(dk):
                if yk[a] != 0.0:
                    idx.append(members[lo + a])
                    val.append(yk[a])
        for i in np.argsort(np.array(idx, dtype=np.int64)):
            out_indices.append(idx[i])
            out_values.append(val[i])
        out_indptr[row + 1] = len(out_indices)
    return (out_indptr, np.array(out_indices, dtype=np.int64),
            np.array(out_values, dtype=np.float64))


def coalesce(keys, values, nrows, ncols):
    sums = {}
    for t in range(keys.shape[0]):
        sums[int(keys[t])] = sums.get(int(keys[t]), 0.0) + values[t]
    out_indptr = np.zeros(nrows + 1, dtype=np.int64)
    out_indices, out_values = [], []
    for key in sorted(sums):
        if sums[key] != 0.0:
            out_indptr[key // ncols + 1] += 1
            out_indices.append(key % ncols)
            out_values.append(sums[key])
    return (np.cumsum(out_indptr), np.array(out_indices, dtype=np.int64),
            np.array(out_values, dtype=np.float64))


def parse_ints(buf, starts, ends):
    values = np.zeros(starts.shape[0], dtype=np.int64)
    ok = np.zeros(starts.shape[0], dtype=bool)
    for i in range(starts.shape[0]):
        token = bytes(buf[starts[i]:ends[i]])
        if 1 <= len(token) <= 18 and all(48 <= b <= 57 for b in token):
            values[i] = int(token)
            ok[i] = True
    return values, ok


def _extended(x):
    """The positive Fraction x rounded to nearest (ties to even) with a
    64-bit significand, as x87 extended precision rounds: (value,
    significand)."""
    s = 63 - (x.numerator.bit_length() - x.denominator.bit_length())
    while x * Fraction(2) ** s >= 2**64:
        s -= 1
    while x * Fraction(2) ** s < 2**63:
        s += 1
    significand = round(x * Fraction(2) ** s)  # Fraction rounds ties to even
    return Fraction(significand) / Fraction(2) ** s, significand


def _extended_midpoint(x):
    """Whether the Fraction x, rounded as _extended rounds it, lies halfway
    between two doubles: the low 11 of its 64 significand bits are 0x400."""
    if x == 0:
        return False
    return _extended(x)[1] & 0x7FF == 0x400  # a carry to 2**64 leaves 0 there


# digits[.digits]: whole and fraction digits (bytes patterns match ASCII \d
# only)
_FLOAT_TOKEN = re.compile(rb"(\d*)(?:\.(\d*))?")


def parse_floats(buf, starts, ends, dots):
    # dots only spares the kernel a search; the loop finds the dot itself
    values = np.zeros(starts.shape[0], dtype=np.float64)
    ok = np.zeros(starts.shape[0], dtype=bool)
    for i in range(starts.shape[0]):
        token = bytes(buf[starts[i]:ends[i]])
        match = _FLOAT_TOKEN.fullmatch(token)
        if not match:
            continue
        whole, frac = match.groups(b"")
        digits = whole + frac
        if (1 <= len(digits) <= 19
                and not _extended_midpoint(Fraction(int(digits), 10 ** len(frac)))):
            values[i] = float(token)
            ok[i] = True
    return values, ok


def format_floats(values):
    # the kernel's rules, with its one extended-precision product worked out
    # exactly and rounded by _extended, then the shorter roundings of the
    # 17 digits one by one, with the same float64 distances
    chars = np.zeros((values.shape[0], 24), dtype=np.uint8)
    ok = np.zeros(values.shape[0], dtype=bool)
    for i, x in enumerate(values.tolist()):
        a = abs(x)
        if not math.isfinite(a) or a == 0 or math.frexp(a)[0] == 0.5:
            continue  # zero, not finite, or a power-of-two significand
        e = int(np.floor(np.log10(a)))
        if abs(16 - e) > 27:
            continue
        y = _extended(Fraction(a) * Fraction(10) ** (16 - e))[0]
        e += (y >= 10**17) - (y < 10**16)
        if abs(16 - e) > 27:
            continue
        y = _extended(Fraction(a) * Fraction(10) ** (16 - e))[0]
        w17 = round(y)
        d = float(y - w17)
        if abs(d) == 0.5:
            continue  # rint had a tie to break
        h = float(np.spacing(a)) * 0.5 * 10.0 ** (16 - e)
        sure = True
        for k in range(1, 17):
            unit = 10**k
            cut, rest = divmod(w17, unit)
            tie = rest == unit // 2
            cut += rest > unit // 2 or tie and d > 0
            t = abs(float(cut * unit - w17) - d)
            if tie and d == 0 or h - 2.0**-6 <= t <= h + 2.0**-6:
                sure = False
                break
            if t > h:
                break
        if sure:
            text = repr(x).encode()
            chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
            ok[i] = True
    return chars, ok
