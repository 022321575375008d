"""Balanced node-splitting routines used to grow the feature hierarchy.

One balanced 2-means loop with two scorings: spherical 2-means (unit row
weights, mean centres) and a discounted-cumulative-gain variant for nonnegative
sparse representatives (inverse-ideal-gain row weights, rank-discount centres).
The loop, split_level, splits every node of one tree level in a single
vectorized pass from each node's two drawn rows; kmeans_split and ndcg_split
are one-node calls of it that draw the rows with _pick_two_distinct. Two
drawn rows are distinct when _rows_differ finds their lengths, an index or
a value unequal. Splits
are pure given (members, representatives, rng) and always return exactly
balanced halves of sizes ceil(m/2) / floor(m/2), regardless of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .reprs import ReprSet
from .sparse import SparseMatrix, _value_eq

MAX_ITERS = 20
INIT_ATTEMPTS = 6  # one initial draw plus up to five redraws
# split_level compacts its working set once the rows of unconverged nodes
# are at most this share of it
_COMPACT_SHARE = 0.5


@dataclass(frozen=True)
class Ranking:
    """Permutation of [0, p); position j holds the coordinate ranked j-th."""

    order: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        object.__setattr__(self, "order", order)
        p = order.shape[0]
        if p and (order.min() < 0 or order.max() >= p or np.unique(order).shape[0] != p):
            raise ValueError("order is not a permutation")

    @classmethod
    def rank_of(cls, v: np.ndarray) -> "Ranking":
        """Coordinates in decreasing value order, ties by ascending index; a
        value that is not finite is a ValueError."""
        v = np.asarray(v, dtype=np.float64)
        if not np.isfinite(v).all():
            raise ValueError("values to rank must be finite")
        return cls(kernels.rank_within(0, v))

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
    __eq__ = _value_eq


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


def _rows_differ(matrix: SparseMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair, whether rows a[i] and b[i] of matrix differ, for arrays a
    and b of row numbers of one shape: they do unless np.array_equal holds
    for their indices and for their values, so -0.0 equals 0.0 and a row
    holding a NaN differs from every row, itself included.

    Pairs of unequal length differ; the others compare entry by entry.
    """
    shape = np.shape(a)
    a, b = np.ravel(a), np.ravel(b)
    ptr = matrix.indptr
    sa, sb = ptr[a], ptr[b]
    lens = ptr[a + 1] - sa
    differ = lens != ptr[b + 1] - sb
    same = np.flatnonzero(~differ)
    pair = np.repeat(same, lens[same])  # the pair of each compared entry
    ea = kernels.concat_ranges(sa[same], sa[same] + lens[same])
    eb = ea + (sb - sa)[pair]
    mismatch = ((matrix.indices[ea] != matrix.indices[eb])
                | (matrix.values[ea] != matrix.values[eb]))
    differ[pair[mismatch]] = True
    return differ.reshape(shape)


def _pick_two_distinct(size: int, differ, rng: np.random.Generator) -> tuple[int, int] | None:
    """Positions of two of size rows that differ(a, b) says differ, drawn by
    rng, or None after redraws."""
    for _ in range(INIT_ATTEMPTS):
        a, b = rng.choice(size, size=2, replace=False)
        if differ(a, b):
            return int(a), int(b)
    return None


@dataclass(frozen=True)
class Slots:
    """The centre coordinates of a set of nodes: one slot per distinct
    (node, coordinate) of the nodes' rows, sorted by node then coordinate.
    Node k's slots are start[k]:start[k + 1]."""

    node: np.ndarray
    coord: np.ndarray
    start: np.ndarray

    @cached_property
    def sides(self) -> np.ndarray:
        """node * 2 + side per slot and side, for centres that group a
        column per side by node."""
        return 2 * self.node[:, None] + np.arange(2)


def _mean(sums: np.ndarray, n, slots: Slots) -> np.ndarray:
    return sums / n


class _Working:
    """The nodes of a level still splitting, with their rows and centre slots.

    Rows are node-contiguous, in ascending member order within a node; the
    i-th row of a node sits at the node's i-th level position. What an
    iteration needs that depends only on the rows and node sizes (the plus
    side of each ranked position, the side sizes per slot, the row-weighted
    values) is computed here once; keep() compacts every array, which
    split_level does once a share of the rows has converged, so an
    iteration costs O(nnz of the working rows).
    """

    def __init__(self, nodes, places, rows, node, lens, values, weighted, slot, slots,
                 weights):
        self.nodes = nodes        # level node ids
        self.places = places      # level positions of the nodes, ascending
        self.rows = rows          # level position of each row's member
        self.node = node          # working node of each row
        self.lens = lens          # stored entries per row
        self.ptr = np.concatenate(([0], np.cumsum(lens)))
        self.values = values      # the rows' stored values, row after row
        self.weighted = weighted  # the same, each times its row's weight
        self.slot = slot          # centre slot of each stored value
        self.slots = slots
        self.weights = weights    # per row, or None for unit weights
        self.sizes = np.bincount(node, minlength=nodes.shape[0])
        self.first = np.concatenate(([0], np.cumsum(self.sizes)))[:-1]
        n_plus = (self.sizes + 1) // 2
        # ranked position i (node[i]'s rows are ranked in its own positions)
        # is on the plus side when it is among its node's top ceil(m/2)
        self.plus = np.arange(node.shape[0]) - self.first[node] < n_plus[node]
        self.minus = ~self.plus
        self.side_sizes = np.column_stack((n_plus, self.sizes - n_plus))[slots.node]
        self.nonempty = None if lens.all() else np.flatnonzero(lens)

    def keep(self, keep_node: np.ndarray) -> "_Working":
        keep_row = keep_node[self.node]
        keep_entry = np.repeat(keep_row, self.lens)
        keep_slot = keep_node[self.slots.node]
        renumber = np.cumsum(keep_node) - 1
        slots = Slots(renumber[self.slots.node[keep_slot]], self.slots.coord[keep_slot],
                      np.concatenate(([0], np.cumsum(np.diff(self.slots.start)[keep_node]))))
        values = self.values[keep_entry]
        return _Working(
            self.nodes[keep_node], self.places[keep_row], self.rows[keep_row],
            renumber[self.node[keep_row]], self.lens[keep_row], values,
            values if self.weights is None else self.weighted[keep_entry],
            (np.cumsum(keep_slot) - 1)[self.slot[keep_entry]], slots,
            None if self.weights is None else self.weights[keep_row],
        )

    def row_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per slot and side, the value of the node's one given row of that
        side (0 elsewhere); rows holds each node's plus row and minus row."""
        sums = np.zeros((self.slots.node.shape[0], 2))
        for side in (0, 1):
            ent = kernels.concat_ranges(self.ptr[rows[:, side]], self.ptr[rows[:, side] + 1])
            sums[self.slot[ent], side] = self.values[ent]
        return sums

    def scores(self, c: np.ndarray) -> np.ndarray:
        """weights[i] * <row_i, c_plus - c_minus> per row, c holding the
        centres' plus and minus columns; each row's products are summed in
        stored order."""
        prods = self.values * (c[:, 0] - c[:, 1])[self.slot]
        if self.nonempty is None:
            out = np.add.reduceat(prods, self.ptr[:-1])
        else:
            out = np.zeros(self.rows.shape[0])
            if self.nonempty.shape[0]:
                out[self.nonempty] = np.add.reduceat(prods, self.ptr[self.nonempty])
        return out if self.weights is None else self.weights * out

    def centres(self, ranked: np.ndarray, centre):
        """Both sides' centres, one column each: the weighted rows summed in
        ranked order, one bincount keyed by (slot, side)."""
        lens = self.lens[ranked]
        ent = kernels.concat_ranges(self.ptr[ranked], self.ptr[ranked + 1])
        n_slots = self.slots.node.shape[0]
        sums = np.bincount(self.slot[ent] * 2 + np.repeat(self.minus, lens),
                           weights=self.weighted[ent], minlength=2 * n_slots)
        return centre(sums.reshape(n_slots, 2), self.side_sizes, self.slots)


def split_level(matrix: SparseMatrix, members: np.ndarray, node_ptr: np.ndarray,
                picks: np.ndarray, max_iters: int, weights: np.ndarray | None, centre,
                trace: list | None = None):
    """The balanced 2-means loop of both split kinds, over every node of a level.

    Node k holds the rows members[node_ptr[k]:node_ptr[k + 1]] of matrix
    (at least two). Its row i scores weights[i] * <row_i, c_plus - c_minus>
    (unit weights when weights is None); the sides' centres are
    centre(sums, sizes, slots), a column per side of the sums of
    weights[i] * row_i over the side's rows. The centres start at
    centre(rows, 1, slots) of the node's rows picks[k, 0] and picks[k, 1]
    (positions within the node); a node whose picks are -1 splits in index
    order. Each iteration puts the top ceil(m/2) rows by score in the plus half,
    ties by ascending member id; a node converges when its halves repeat,
    and then leaves the working set. Centres live on the node's slots only,
    so a level takes O(nnz of its rows) memory, never nodes x p.

    Returns (order, iterations, converged): members[order] holds each node's
    plus half then its minus half in place, and iterations[k] is 0 for an
    index-order split. A one-node call given a trace list appends
    n_plus * |c_plus|^2 + n_minus * |c_minus|^2 of each iteration's halves.
    """
    p = matrix.cols
    sizes = np.diff(node_ptr)
    n_nodes = sizes.shape[0]
    node_of = np.repeat(np.arange(n_nodes), sizes)
    # working rows in ascending member order within each node, so a stable
    # ranking breaks score ties by member id
    rows = kernels.group_order(node_of, members)
    starts, ends = matrix.indptr[members[rows]], matrix.indptr[members[rows] + 1]
    entries = kernels.concat_ranges(starts, ends)
    keys, slot = kernels.key_slots(np.repeat(node_of, ends - starts) * p
                                   + matrix.indices[entries], n_nodes * p)
    slots = Slots(keys // p, keys % p,
                  np.searchsorted(keys, np.arange(n_nodes + 1) * p))
    values, lens = matrix.values[entries], ends - starts
    weights = None if weights is None else weights[rows]
    work = _Working(np.arange(n_nodes), np.arange(members.shape[0]), rows, node_of, lens,
                    values, values if weights is None else values * np.repeat(weights, lens),
                    slot, slots, weights)

    order = np.arange(members.shape[0])
    iterations = np.zeros(n_nodes, dtype=np.int64)
    converged = np.ones(n_nodes, dtype=bool)
    drawn = picks[:, 0] >= 0
    if not drawn.all():
        fallback = ~drawn[node_of]
        order[fallback] = rows[fallback]
        work = work.keep(drawn)
    if not drawn.any():
        return order, iterations, converged

    # initial centres: each side's sums hold one drawn row
    row_of = np.empty(members.shape[0], dtype=np.int64)
    row_of[work.rows] = np.arange(work.rows.shape[0])
    c = centre(work.row_sums(row_of[node_ptr[:-1][drawn, None] + picks[drawn]]), 1,
               work.slots)

    prev = None
    # working nodes that have not converged: a converged node's rows stay in
    # the working set, where they repeat their halves, until a share of the
    # rows has left and keep() compacts the set
    active = np.ones(work.nodes.shape[0], dtype=bool)
    for it in range(1, max_iters + 1):
        ranked = kernels.rank_within(work.node, work.scores(c))
        if trace is not None:
            n_plus = (work.rows.shape[0] + 1) // 2
            dense = np.zeros((2, p))
            dense[:, work.slots.coord] = work.centres(ranked, centre).T
            trace.append(n_plus * float(np.dot(dense[0], dense[0]))
                         + (work.rows.shape[0] - n_plus) * float(np.dot(dense[1], dense[1])))
        assign = np.empty(ranked.shape[0], dtype=bool)
        assign[ranked] = work.plus
        done = np.zeros(work.nodes.shape[0], dtype=bool)
        if prev is not None:
            done = np.bincount(work.node[assign != prev], minlength=done.shape[0]) == 0
            done &= active
        if it == max_iters:
            converged[work.nodes[active & ~done]] = False
            done = active
        if done.any():
            finished = done[work.node]
            order[work.places[finished]] = work.rows[ranked[finished]]
            iterations[work.nodes[done]] = it
            active = active & ~done
            if not active.any():
                break
            keep = active[work.node]
            if np.count_nonzero(keep) <= _COMPACT_SHARE * keep.shape[0]:
                ranked = (np.cumsum(keep) - 1)[ranked[keep]]
                assign = assign[keep]
                work = work.keep(active)
                active = np.ones(work.nodes.shape[0], dtype=bool)
        prev = assign
        c = work.centres(ranked, centre)
    return order, iterations, converged


def _one_node(members, rs: ReprSet, rng, max_iters, weights, centre) -> SplitResult:
    matrix = rs.matrix
    pick = _pick_two_distinct(
        members.shape[0], lambda a, b: _rows_differ(matrix, members[a], members[b]), rng)
    trace: list[float] = []
    order, iterations, converged = split_level(
        matrix, members, np.array([0, members.shape[0]]), np.array([pick or (-1, -1)]),
        max_iters, weights, centre, trace)
    halves = members[order]
    n_plus = (members.shape[0] + 1) // 2
    return SplitResult(halves[:n_plus], halves[n_plus:], int(iterations[0]),
                       bool(converged[0]), tuple(trace))


def _split_members(members, max_iters: int) -> np.ndarray:
    """members as int64, checked for a split."""
    members = np.asarray(members, dtype=np.int64)
    if members.shape[0] < 2:
        raise ValueError("need at least two features to split")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    return members


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
    members = _split_members(members, max_iters)
    return _one_node(members, rs, rng, max_iters, None, _mean)


def _ideal_inverses(sub: SparseMatrix, base: float | None) -> np.ndarray:
    """1 / best-achievable gain per row; 0 for all-zero rows. A gain below
    the smallest normal double, 2**-1022 (a row of subnormal values), counts
    as 2**-1022, so that every inverse is finite.

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
    by_len = kernels.group_order(0, lens)
    lens_sorted = lens[by_len]
    firsts = np.flatnonzero(np.diff(lens_sorted, prepend=0)).tolist()
    for lo, hi in zip(firsts, firsts[1:] + [sub.rows]):
        n = int(lens_sorted[lo])
        rows = by_len[lo:hi]
        vals = sub.values[sub.indptr[rows][:, None] + np.arange(n)]
        vals = np.sort(vals, axis=1)[:, ::-1]
        out[rows] = 1.0 / np.maximum(np.sum(vals / discounts[:n], axis=1), 2.0 ** -1022)
    return out


def _rank_gains(ladder: np.ndarray):
    """The ndcg centre: per node and side (a column of sums), ladder[j] at
    the coordinate ranked j-th (0-based) by decreasing sum, ties by ascending
    coordinate, on every slot.

    Only the positive slots are sorted, both sides in one ranking grouped by
    node * 2 + side. Zero coordinates follow them in index order, so a zero
    slot's rank is its node's positive count plus its coordinate minus the
    positive coordinates below it.
    """

    def centre(sums: np.ndarray, n, slots: Slots) -> np.ndarray:
        positive = sums > 0.0
        # positive slots before each slot and before each node, per side
        before = np.zeros((positive.shape[0] + 1, 2), dtype=np.int64)
        np.cumsum(positive, axis=0, out=before[1:])
        first = before[slots.start]
        n_pos = np.diff(first, axis=0)
        # a zero slot: after its node's positive slots, at its coordinate
        # less the positive slots below it in the node
        rank = (first[1:][slots.node] + slots.coord[:, None] - before[:-1]).ravel()
        at = np.flatnonzero(positive)  # slot * 2 + side
        group = slots.sides.ravel()[at]
        ranked = kernels.rank_within(group, sums.ravel()[at])
        n_pos = n_pos.ravel()
        first_pos = np.cumsum(n_pos) - n_pos
        rank[at[ranked]] = np.arange(at.shape[0]) - first_pos[group[ranked]]
        return ladder[rank].reshape(sums.shape)

    return centre


def _ndcg_scoring(matrix: SparseMatrix, base: float | None):
    """Row weights and centre of the ndcg split over matrix's rows."""
    logb = _log_base(base)
    if matrix.values.size and np.any(matrix.values < 0):
        raise ValueError("representatives must be nonnegative")
    # gain of rank position j (1-based) is logb / log(1 + j)
    ladder = logb / np.log(1.0 + np.arange(1, matrix.cols + 1))
    return _ideal_inverses(matrix, base), _rank_gains(ladder)


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
    members = _split_members(members, max_iters)
    weights, centre = _ndcg_scoring(rs.matrix.take_rows(members), base)
    return _one_node(members, rs, rng, max_iters, weights, centre)


def scoring(split_kind: str, matrix: SparseMatrix):
    """(row weights or None, centre) of a split kind over all of matrix's
    rows, for split_level: the ideal inverses are computed once per tree."""
    if split_kind == "kmeans":
        return None, _mean
    return _ndcg_scoring(matrix, None)
