"""Reference tree build: the recursive per-node construction and its split
loop, kept to pin the level-synchronous build in featagg.tree/featagg.splits.

make_tree grows the tree depth first, one node at a time; each split runs
two_means on that node's rows alone with dense length-p centres, exactly as
the library did before it split every node of a depth in one pass. Both
builds draw each node's RNG from (seed, bit path) and must give the same
partition and the same per-depth split counts.
"""

from __future__ import annotations

import math

import numpy as np

from featagg import kernels
from featagg.splits import MAX_ITERS, SplitResult
from featagg.tree import FeaturePartition

_INIT_ATTEMPTS = 6  # one initial draw plus up to five redraws


def select_balanced(scores, members):
    """Positions of the top ceil(m/2) by score (ties by ascending member id)."""
    order = np.lexsort((members, -scores))
    n_plus = (members.shape[0] + 1) // 2
    return order[:n_plus], order[n_plus:]


def index_order_split(members):
    plus, minus = select_balanced(np.zeros(members.shape[0]), members)
    return SplitResult(members[plus], members[minus], iterations=0, converged=True)


def rows_equal(m, a, b):
    sa, ea = m.indptr[a], m.indptr[a + 1]
    sb, eb = m.indptr[b], m.indptr[b + 1]
    return (
        ea - sa == eb - sb
        and np.array_equal(m.indices[sa:ea], m.indices[sb:eb])
        and np.array_equal(m.values[sa:ea], m.values[sb:eb])
    )


def pick_two_distinct(sub, rng):
    """Two distinct-index rows with distinct contents, or None after redraws."""
    for _ in range(_INIT_ATTEMPTS):
        a, b = rng.choice(sub.rows, size=2, replace=False)
        if not rows_equal(sub, int(a), int(b)):
            return int(a), int(b)
    return None


def dense_row(sub, i):
    out = np.zeros(sub.cols, dtype=np.float64)
    s, e = sub.indptr[i], sub.indptr[i + 1]
    out[sub.indices[s:e]] = sub.values[s:e]
    return out


def two_means(members, sub, rng, max_iters, weights, centre):
    """The per-node balanced 2-means loop: row i scores
    weights[i] * <row_i, c_plus - c_minus>, a side's centre is
    centre(sum of weights[i] * row_i over its rows, side size)."""
    m = members.shape[0]
    picked = pick_two_distinct(sub, rng)
    if picked is None:
        return index_order_split(members)
    c_plus = centre(dense_row(sub, picked[0]), 1)
    c_minus = centre(dense_row(sub, picked[1]), 1)

    prev, trace = None, []
    for it in range(1, max_iters + 1):
        diff = c_plus - c_minus
        scores = weights * kernels.row_dots(sub.indptr, sub.indices, sub.values, diff)
        plus, minus = select_balanced(scores, members)
        c_plus, c_minus = (
            centre(kernels.weighted_sum_rows(sub.indptr, sub.indices, sub.values,
                                             side, weights[side], sub.cols), len(side))
            for side in (plus, minus)
        )
        trace.append(len(plus) * float(np.dot(c_plus, c_plus))
                     + len(minus) * float(np.dot(c_minus, c_minus)))
        assign = np.zeros(m, dtype=bool)
        assign[plus] = True
        converged = prev is not None and np.array_equal(assign, prev)
        if converged:
            break
        prev = assign
    return SplitResult(members[plus], members[minus], it, converged, tuple(trace))


def kmeans_split(members, rs, rng, max_iters=MAX_ITERS):
    members = np.asarray(members, dtype=np.int64)
    sub = rs.matrix.take_rows(members)
    return two_means(members, sub, rng, max_iters, np.ones(sub.rows),
                     lambda v, n: v / n)


def ideal_inverses(sub, base=None):
    """1 / best-achievable gain per row, one row at a time; 0 for empty rows."""
    out = np.zeros(sub.rows, dtype=np.float64)
    logb = math.log(base) if base is not None else 1.0
    for i in range(sub.rows):
        s, e = sub.indptr[i], sub.indptr[i + 1]
        if e == s:
            continue
        vals = np.sort(sub.values[s:e])[::-1]
        out[i] = 1.0 / float(np.sum(vals / (np.log(np.arange(2.0, vals.shape[0] + 2.0))
                                          / logb)))
    return out


def gains(v, ladder):
    """Discount of each coordinate's position in the ranking of v (decreasing
    value, ties by ascending index)."""
    g = np.empty(ladder.shape[0], dtype=np.float64)
    g[np.argsort(-v, kind="stable")] = ladder
    return g


def ndcg_split(members, rs, rng, max_iters=MAX_ITERS, base=None):
    members = np.asarray(members, dtype=np.int64)
    sub = rs.matrix.take_rows(members)
    logb = math.log(base) if base is not None else 1.0
    ladder = logb / np.log(1.0 + np.arange(1, sub.cols + 1))
    return two_means(members, sub, rng, max_iters, ideal_inverses(sub, base),
                     lambda v, n: gains(v, ladder))


def node_rng(seed, node_key):
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, node_key]))


def make_tree(rs, d0=8, split_kind="kmeans", seed=0, max_iters=MAX_ITERS):
    """(partition, per-depth counts) of the recursive build.

    counts[depth] is [nodes split, iterations, non-converged splits,
    index-order fallbacks] over the nodes split at that depth.
    """
    split = kmeans_split if split_kind == "kmeans" else ndcg_split
    clusters, counts = [], []

    def build(members, node_key, depth):
        if members.shape[0] <= d0:
            clusters.append(np.sort(members))
            return
        result = split(members, rs, node_rng(seed, node_key), max_iters)
        if len(counts) == depth:
            counts.append([0, 0, 0, 0])
        level = counts[depth]
        level[0] += 1
        level[1] += result.iterations
        level[2] += not result.converged
        level[3] += result.iterations == 0
        build(result.s_plus, node_key * 2, depth + 1)
        build(result.s_minus, node_key * 2 + 1, depth + 1)

    build(np.arange(rs.n_features, dtype=np.int64), 1, 0)
    part = FeaturePartition.from_clusters(rs.n_features, clusters, d0=d0, seed=seed)
    return part, [tuple(level) for level in counts]
