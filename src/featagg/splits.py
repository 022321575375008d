"""Balanced node-splitting routines used to grow the feature hierarchy.

One balanced 2-means loop with two scorings: spherical 2-means (unit row
weights, mean centres) and a discounted-cumulative-gain variant for nonnegative
sparse representatives (inverse-ideal-gain row weights, rank-discount centres).
Both are pure given (members, representatives, rng) and always return exactly
balanced halves of sizes ceil(m/2) / floor(m/2), regardless of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .reprs import ReprSet
from .sparse import SparseMatrix

MAX_ITERS = 20
_INIT_ATTEMPTS = 6  # one initial draw plus up to five redraws


@dataclass(frozen=True)
class Ranking:
    """Permutation of [0, p); position j holds the coordinate ranked j-th."""

    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        object.__setattr__(self, "order", order)
        p = order.shape[0]
        if p and (order.min() < 0 or order.max() >= p or np.unique(order).shape[0] != p):
            raise ValueError("order is not a permutation")

    @classmethod
    def rank_of(cls, v: np.ndarray) -> "Ranking":
        """Coordinates in decreasing value order, ties by ascending index."""
        v = np.asarray(v, dtype=np.float64)
        return cls(np.lexsort((np.arange(v.shape[0]), -v)))

    def positions(self) -> np.ndarray:
        """1-based rank position of each coordinate."""
        pos = np.empty(self.order.shape[0], dtype=np.int64)
        pos[self.order] = np.arange(1, self.order.shape[0] + 1)
        return pos


@dataclass(frozen=True)
class SplitResult:
    """The two halves of one split. objective_trace holds, per iteration,
    n_plus * |c_plus|^2 + n_minus * |c_minus|^2 for either kind's centres
    (means or rank discounts); equality ignores it."""

    s_plus: np.ndarray
    s_minus: np.ndarray
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = field(default=(), compare=False)


def _log_base(base: float | None) -> float:
    """ln(base), or 1.0 for the natural log (base None)."""
    if base is None:
        return 1.0
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise ValueError(f"log base must be finite, positive and not 1, got {base}")
    return math.log(base)


def _discounts(p: int, base: float | None) -> np.ndarray:
    """log_base(1 + j) for rank positions j = 1 .. p."""
    return np.log(np.arange(2.0, p + 2.0)) / _log_base(base)


def dcg(r: Ranking, v: np.ndarray, base: float | None = None) -> float:
    """Sum of v[r_j] / log(1+j), j starting at 1 (natural log by default)."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    if r.order.shape[0] != v.shape[0]:
        raise ValueError("ranking and vector dimensions differ")
    return float(np.sum(v[r.order] / _discounts(v.shape[0], base)))


def ndcg(r: Ranking, v: np.ndarray, base: float | None = None) -> float:
    """Gain of r relative to the ideal ranking of v; 0 for an all-zero v."""
    ideal = dcg(Ranking.rank_of(v), v, base)
    if ideal == 0.0:
        return 0.0
    return dcg(r, v, base) / ideal


def _select_balanced(scores: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the top ceil(m/2) by score (ties by ascending member id)."""
    order = np.lexsort((members, -scores))
    n_plus = (members.shape[0] + 1) // 2
    return order[:n_plus], order[n_plus:]


def balanced_halves(scores: np.ndarray, members: np.ndarray) -> SplitResult:
    """One-shot even split of members by precomputed scores."""
    members = np.asarray(members, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if members.shape[0] == 0:
        raise ValueError("cannot split an empty feature set")
    if scores.shape[0] != members.shape[0]:
        raise ValueError("one score per member required")
    plus, minus = _select_balanced(scores, members)
    return SplitResult(members[plus], members[minus], iterations=0, converged=True)


def _rows_equal(m: SparseMatrix, a: int, b: int) -> bool:
    sa, ea = m.indptr[a], m.indptr[a + 1]
    sb, eb = m.indptr[b], m.indptr[b + 1]
    return (
        ea - sa == eb - sb
        and np.array_equal(m.indices[sa:ea], m.indices[sb:eb])
        and np.array_equal(m.values[sa:ea], m.values[sb:eb])
    )


def _pick_two_distinct(sub: SparseMatrix, rng: np.random.Generator) -> tuple[int, int] | None:
    """Two distinct-index rows with distinct contents, or None after redraws."""
    for _ in range(_INIT_ATTEMPTS):
        a, b = rng.choice(sub.rows, size=2, replace=False)
        if not _rows_equal(sub, int(a), int(b)):
            return int(a), int(b)
    return None


def _dense_row(sub: SparseMatrix, i: int) -> np.ndarray:
    out = np.zeros(sub.cols, dtype=np.float64)
    s, e = sub.indptr[i], sub.indptr[i + 1]
    out[sub.indices[s:e]] = sub.values[s:e]
    return out


def _split_rows(members, rs: ReprSet, max_iters: int):
    """members as int64 and their representatives, checked for a split."""
    members = np.asarray(members, dtype=np.int64)
    if members.shape[0] < 2:
        raise ValueError("need at least two features to split")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    return members, rs.matrix.take_rows(members)


def _two_means(members: np.ndarray, sub: SparseMatrix, rng: np.random.Generator,
               max_iters: int, weights: np.ndarray, centre) -> SplitResult:
    """The balanced 2-means loop of both split kinds.

    Row i of sub (members[i]'s representative) scores
    weights[i] * <row_i, c_plus - c_minus>; a side's centre is
    centre(sum of weights[i] * row_i over its rows, side size). The centres
    start at centre(row, 1) of two distinct random rows, else the members
    split in index order. Converged means the partition repeated between
    consecutive iterations.
    """
    m = members.shape[0]
    picked = _pick_two_distinct(sub, rng)
    if picked is None:
        return balanced_halves(np.zeros(m), members)
    c_plus = centre(_dense_row(sub, picked[0]), 1)
    c_minus = centre(_dense_row(sub, picked[1]), 1)

    prev, trace = None, []
    for it in range(1, max_iters + 1):
        diff = c_plus - c_minus
        scores = weights * kernels.row_dots(sub.indptr, sub.indices, sub.values, diff)
        plus, minus = _select_balanced(scores, members)
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


def kmeans_split(
    members: np.ndarray,
    rs: ReprSet,
    rng: np.random.Generator,
    max_iters: int = MAX_ITERS,
) -> SplitResult:
    """Balanced spherical 2-means on the members' representative vectors.

    Centroids start at two randomly drawn representatives and are recomputed
    as plain means (no re-normalization).
    """
    members, sub = _split_rows(members, rs, max_iters)
    return _two_means(members, sub, rng, max_iters, np.ones(sub.rows),
                      lambda v, n: v / n)


def _ideal_inverses(sub: SparseMatrix, base: float | None) -> np.ndarray:
    """1 / best-achievable gain per row; 0 for all-zero rows.

    Rows are grouped by nonzero count, and each group is sorted, discounted
    and summed as one 2-D block. np.sum along a row of a block sums exactly
    as np.sum on that row alone, so each value matches a per-row computation
    bit for bit.
    """
    out = np.zeros(sub.rows, dtype=np.float64)
    lens = np.diff(sub.indptr)
    if sub.rows == 0 or lens.max() == 0:
        return out
    discounts = _discounts(int(lens.max()), base)
    by_len = np.argsort(lens, kind="stable")
    lens_sorted = lens[by_len]
    firsts = np.flatnonzero(np.diff(lens_sorted, prepend=0)).tolist()
    for lo, hi in zip(firsts, firsts[1:] + [sub.rows]):
        n = int(lens_sorted[lo])
        rows = by_len[lo:hi]
        vals = sub.values[sub.indptr[rows][:, None] + np.arange(n)]
        vals = np.sort(vals, axis=1)[:, ::-1]
        out[rows] = 1.0 / np.sum(vals / discounts[:n], axis=1)
    return out


def _gains(v: np.ndarray, ladder: np.ndarray) -> np.ndarray:
    """Discount of each coordinate's position in Ranking.rank_of(v)."""
    g = np.empty(ladder.shape[0], dtype=np.float64)
    g[np.argsort(-v, kind="stable")] = ladder
    return g


def ndcg_split(
    members: np.ndarray,
    rs: ReprSet,
    rng: np.random.Generator,
    max_iters: int = MAX_ITERS,
    base: float | None = None,
) -> SplitResult:
    """Balanced split scored by gain against two centroid rankings.

    Centroid rankings are recomputed as the rank of the ideal-weighted sum of
    each side's representatives; the log base cancels out of every gain ratio,
    so it cannot change the resulting partition.
    """
    members, sub = _split_rows(members, rs, max_iters)
    logb = _log_base(base)
    if sub.values.size and np.any(sub.values < 0):
        raise ValueError("representatives must be nonnegative")
    # gain of rank position j (1-based) is logb / log(1 + j)
    ladder = logb / np.log(1.0 + np.arange(1, sub.cols + 1))
    return _two_means(members, sub, rng, max_iters, _ideal_inverses(sub, base),
                      lambda v, n: _gains(v, ladder))
