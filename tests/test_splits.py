import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from featagg import kernels, splits, tree
from featagg.reprs import ReprSet
from featagg.splits import (
    Ranking,
    dcg,
    kmeans_split,
    ndcg,
    ndcg_split,
)
from helpers import balanced_partitions, matrix_from_dense
import tree_reference


def repr_set(dense_rows, normalized=False) -> ReprSet:
    return ReprSet(matrix=matrix_from_dense(dense_rows), kind="x",
                   normalized=normalized)


class TestBalancedHalves:
    """The split loop's halving rule: the top ceil(m/2) members by score, ties
    by ascending member id, against the rest, each half in ranked order."""

    def test_scores_pick_top_half(self):
        # on one coordinate the side with the larger centre takes the larger values
        rs = repr_set([[5.0], [1.0], [3.0], [2.0]])
        for seed in range(6):
            res = kmeans_split(np.arange(4), rs, np.random.default_rng(seed))
            assert (res.s_plus.tolist(), res.s_minus.tolist()) in (
                ([0, 2], [3, 1]), ([1, 3], [2, 0]))

    def test_odd_size_ceiling(self, rng):
        distinct, identical = rng.random((5, 3)), np.ones((5, 3))
        for split in (kmeans_split, ndcg_split):
            for rows in (distinct, identical):
                res = split(np.arange(5), repr_set(rows), rng)
                assert (len(res.s_plus), len(res.s_minus)) == (3, 2)

    def test_tie_break_by_index(self):
        # members 3 and 5 score alike; listed 5 first, 3 still ranks first
        rows = np.zeros((8, 2))
        rows[7], rows[[3, 5]] = [1.0, 0.0], [0.0, 1.0]
        for split in (kmeans_split, ndcg_split):
            for seed in range(6):
                res = split(np.array([7, 5, 3]), repr_set(rows),
                            np.random.default_rng(seed))
                assert (res.s_plus.tolist(), res.s_minus.tolist()) in (
                    ([7, 3], [5]), ([3, 5], [7]))

    def test_empty_errors(self, rng):
        for split in (kmeans_split, ndcg_split):
            with pytest.raises(ValueError):
                split(np.array([], dtype=np.int64), repr_set([[1.0]] * 4), rng)


class TestKmeansSplit:
    def test_two_features_forced_singletons(self, rng):
        rs = repr_set([[1.0, 0.0], [0.0, 1.0]])
        res = kmeans_split(np.array([0, 1]), rs, rng)
        assert len(res.s_plus) == 1 and len(res.s_minus) == 1
        assert set(res.s_plus) | set(res.s_minus) == {0, 1}

    def test_recovers_duplicate_groups(self, rng):
        group_a = [1.0, 0.2, 0.0, 0.0]
        group_b = [0.0, 0.0, 0.3, 1.0]
        rs = repr_set([group_a] * 3 + [group_b] * 3)
        members = np.arange(6)
        res = kmeans_split(members, rs, rng)
        got = {frozenset(res.s_plus.tolist()), frozenset(res.s_minus.tolist())}
        assert got == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_group_split_is_brute_force_optimum(self):
        # the recovered split maximizes the balanced 2-means objective
        rows = np.array([[1.0, 0.2, 0.0, 0.0]] * 3 + [[0.0, 0.0, 0.3, 1.0]] * 3)

        def objective(plus, minus):
            mp = rows[list(plus)].mean(axis=0)
            mm = rows[list(minus)].mean(axis=0)
            return len(plus) * mp @ mp + len(minus) * mm @ mm

        best = max(balanced_partitions(list(range(6))),
                   key=lambda pm: objective(*pm))
        assert {frozenset(best[0]), frozenset(best[1])} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        }

    def test_identical_reprs_deterministic(self):
        rs = repr_set([[1.0, 1.0]] * 4)
        results = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            results.append(kmeans_split(np.arange(4), rs, rng))
        a, b = results
        assert np.array_equal(a.s_plus, b.s_plus)
        assert a.converged and a.iterations <= 2
        # index-order fallback keeps ascending ids together
        assert list(a.s_plus) == [0, 1]

    def test_determinism_across_runs(self, rng):
        rows = rng.random((12, 6)) * (rng.random((12, 6)) > 0.4)
        rs = repr_set(rows)
        r1 = kmeans_split(np.arange(12), rs, np.random.default_rng(5))
        r2 = kmeans_split(np.arange(12), rs, np.random.default_rng(5))
        assert np.array_equal(r1.s_plus, r2.s_plus)
        assert np.array_equal(r1.s_minus, r2.s_minus)

    def test_objective_trace_non_decreasing(self, rng):
        for trial in range(25):
            rows = rng.random((10, 5)) * (rng.random((10, 5)) > 0.3)
            res = kmeans_split(np.arange(10), repr_set(rows),
                               np.random.default_rng(trial))
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_singleton_errors(self, rng):
        with pytest.raises(ValueError):
            kmeans_split(np.array([3]), repr_set([[1.0]] * 4), rng)

    def test_always_balanced_even_unconverged(self, rng):
        rows = rng.random((9, 4))
        res = kmeans_split(np.arange(9), repr_set(rows), rng, max_iters=1)
        assert not res.converged
        assert (len(res.s_plus), len(res.s_minus)) == (5, 4)


class TestDcg:
    def test_direct_formula(self):
        v = np.array([3.0, 1.0, 2.0])
        r = Ranking.rank_of(v)
        assert list(r.order) == [0, 2, 1]
        expected = 3 / math.log(2) + 2 / math.log(3) + 1 / math.log(4)
        assert dcg(r, v) == pytest.approx(expected, rel=1e-15)

    def test_all_zero_vector(self):
        v = np.zeros(4)
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0]):
            assert dcg(Ranking(np.array(perm)), v) == 0.0

    def test_reversal_is_strictly_smaller(self):
        v = np.array([3.0, 1.0, 2.0])
        best = Ranking.rank_of(v)
        reverse = Ranking(best.order[::-1].copy())
        assert dcg(reverse, v) < dcg(best, v)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            dcg(Ranking(np.array([0, 1])), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rank_of_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="^values to rank must be finite$"):
            Ranking.rank_of(np.array([1.0, bad, 0.5]))


class TestNdcg:
    def test_identity_ranking_scores_one(self, rng):
        for _ in range(10):
            v = rng.random(6) * (rng.random(6) > 0.3)
            if v.sum() == 0:
                continue
            assert ndcg(Ranking.rank_of(v), v) == pytest.approx(1.0, rel=1e-15)

    def test_direct_example(self):
        v = np.array([1.0, 0.0])
        r = Ranking(np.array([1, 0]))
        assert ndcg(r, v) == pytest.approx(math.log(2) / math.log(3), rel=1e-15)

    def test_zero_vector_convention(self):
        assert ndcg(Ranking(np.array([0, 1])), np.zeros(2)) == 0.0

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            v = rng.random(5)
            perm = rng.permutation(5)
            val = ndcg(Ranking(perm), v)
            assert 0.0 <= val <= 1.0 + 1e-12


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20))
def test_rank_is_always_permutation(values):
    order = Ranking.rank_of(np.array(values)).order
    assert sorted(order.tolist()) == list(range(len(values)))
    # decreasing values, ties by ascending coordinate
    v = np.array(values)
    for a, b in zip(order, order[1:]):
        assert v[a] > v[b] or (v[a] == v[b] and a < b)


class TestNdcgSplit:
    def test_identical_pair_singletons(self, rng):
        rs = repr_set([[1.0, 2.0]] * 2)
        res = ndcg_split(np.array([0, 1]), rs, rng)
        assert res.converged
        assert set(res.s_plus) | set(res.s_minus) == {0, 1}

    def test_recovers_disjoint_blocks(self, rng):
        block_a = [[2.0, 1.0, 0.5, 0.0, 0.0, 0.0],
                   [1.5, 2.0, 1.0, 0.0, 0.0, 0.0],
                   [2.0, 2.0, 0.5, 0.0, 0.0, 0.0]]
        block_b = [[0.0, 0.0, 0.0, 1.0, 2.0, 0.5],
                   [0.0, 0.0, 0.0, 2.0, 1.0, 1.5],
                   [0.0, 0.0, 0.0, 0.5, 2.0, 2.0]]
        rs = repr_set(block_a + block_b)
        res = ndcg_split(np.arange(6), rs, rng)
        got = {frozenset(res.s_plus.tolist()), frozenset(res.s_minus.tolist())}
        assert got == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_block_split_is_exhaustive_optimum(self):
        # disjoint-support blocks maximize the summed gain to own centroid
        rows = np.array([[2.0, 1.0, 0.5, 0.0, 0.0, 0.0],
                         [1.5, 2.0, 1.0, 0.0, 0.0, 0.0],
                         [2.0, 2.0, 0.5, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0, 2.0, 0.5],
                         [0.0, 0.0, 0.0, 2.0, 1.0, 1.5],
                         [0.0, 0.0, 0.0, 0.5, 2.0, 2.0]])

        def ideal_inv(v):
            vals = np.sort(v[v > 0])[::-1]
            return 1.0 / np.sum(vals / np.log(np.arange(2, len(vals) + 2)))

        def side_gain(side):
            weighted = sum(ideal_inv(rows[i]) * rows[i] for i in side)
            r = Ranking.rank_of(weighted)
            return sum(ndcg(r, rows[i]) for i in side)

        best = max(balanced_partitions(list(range(6))),
                   key=lambda pm: side_gain(pm[0]) + side_gain(pm[1]))
        assert {frozenset(best[0]), frozenset(best[1])} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        }

    def test_log_base_change_keeps_partition(self, rng):
        rows = rng.random((10, 6)) * (rng.random((10, 6)) > 0.4)
        rs = repr_set(rows)
        res_e = ndcg_split(np.arange(10), rs, np.random.default_rng(3))
        res_2 = ndcg_split(np.arange(10), rs, np.random.default_rng(3), base=2.0)
        res_10 = ndcg_split(np.arange(10), rs, np.random.default_rng(3), base=10.0)
        assert np.array_equal(res_e.s_plus, res_2.s_plus)
        assert np.array_equal(res_e.s_plus, res_10.s_plus)

    def test_log_base_change_keeps_ndcg_value(self, rng):
        v = rng.random(7)
        perm = Ranking(rng.permutation(7))
        assert ndcg(perm, v) == pytest.approx(ndcg(perm, v, base=2.0), rel=1e-12)
        assert ndcg(perm, v) == pytest.approx(ndcg(perm, v, base=10.0), rel=1e-12)

    def test_rejects_negative_reprs(self, rng):
        rs = repr_set([[1.0, -0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            ndcg_split(np.array([0, 1]), rs, rng)

    def test_balanced_sizes(self, rng):
        rows = rng.random((7, 5)) * (rng.random((7, 5)) > 0.3)
        res = ndcg_split(np.arange(7), repr_set(rows), rng)
        assert (len(res.s_plus), len(res.s_minus)) == (4, 3)


# Reference splits written out per kind: the index-order fallback, the kmeans
# loop on plain row sums, and a per-row ndcg loop with the ideal gain of each
# row from its own sorted slice and the centroid rankings as explicit Ranking
# objects.
def reference_index_order_split(members):
    ordered = np.sort(members)
    n_plus = (members.shape[0] + 1) // 2
    return splits.SplitResult(ordered[:n_plus], ordered[n_plus:], iterations=0,
                              converged=True)


def reference_kmeans_split(members, rs, rng, max_iters=splits.MAX_ITERS):
    members = np.asarray(members, dtype=np.int64)
    m = members.shape[0]
    sub = rs.matrix.take_rows(members)
    picked = tree_reference.pick_two_distinct(sub, rng)
    if picked is None:
        return reference_index_order_split(members)
    c_plus = tree_reference.dense_row(sub, picked[0])
    c_minus = tree_reference.dense_row(sub, picked[1])

    n_plus = (m + 1) // 2
    n_minus = m - n_plus
    prev = None
    trace: list[float] = []
    plus = minus = None
    iterations = max_iters
    converged = False
    for it in range(1, max_iters + 1):
        scores = kernels.row_dots(sub.indptr, sub.indices, sub.values, c_plus - c_minus)
        plus, minus = tree_reference.select_balanced(scores, members)
        c_plus = kernels.sum_rows(sub.indptr, sub.indices, sub.values, plus, sub.cols)
        c_plus /= n_plus
        c_minus = kernels.sum_rows(sub.indptr, sub.indices, sub.values, minus, sub.cols)
        c_minus /= n_minus
        trace.append(
            n_plus * float(np.dot(c_plus, c_plus))
            + n_minus * float(np.dot(c_minus, c_minus))
        )
        assign = np.zeros(m, dtype=bool)
        assign[plus] = True
        if prev is not None and np.array_equal(assign, prev):
            iterations = it
            converged = True
            break
        prev = assign
    return splits.SplitResult(
        members[plus], members[minus], iterations, converged, tuple(trace)
    )


def reference_ideal_inverses(sub, base):
    out = np.zeros(sub.rows, dtype=np.float64)
    logb = math.log(base) if base is not None else 1.0
    for i in range(sub.rows):
        s, e = sub.indptr[i], sub.indptr[i + 1]
        if e == s:
            continue
        vals = np.sort(sub.values[s:e])[::-1]
        ideal = float(np.sum(vals / (np.log(np.arange(2.0, vals.shape[0] + 2.0)) / logb)))
        out[i] = 1.0 / ideal
    return out


def reference_ndcg_split(members, rs, rng, max_iters=splits.MAX_ITERS, base=None):
    members = np.asarray(members, dtype=np.int64)
    m = members.shape[0]
    sub = rs.matrix.take_rows(members)
    p = sub.cols
    inv_ideal = reference_ideal_inverses(sub, base)
    picked = tree_reference.pick_two_distinct(sub, rng)
    if picked is None:
        return reference_index_order_split(members)
    r_plus = Ranking.rank_of(tree_reference.dense_row(sub, picked[0]))
    r_minus = Ranking.rank_of(tree_reference.dense_row(sub, picked[1]))
    logb = math.log(base) if base is not None else 1.0

    def gains(r):
        return logb / np.log(1.0 + r.positions())

    prev = None
    iterations = max_iters
    converged = False
    for it in range(1, max_iters + 1):
        gdiff = gains(r_plus) - gains(r_minus)
        scores = inv_ideal * kernels.row_dots(sub.indptr, sub.indices, sub.values, gdiff)
        plus, minus = tree_reference.select_balanced(scores, members)
        r_plus = Ranking.rank_of(kernels.weighted_sum_rows(
            sub.indptr, sub.indices, sub.values, plus, inv_ideal[plus], p))
        r_minus = Ranking.rank_of(kernels.weighted_sum_rows(
            sub.indptr, sub.indices, sub.values, minus, inv_ideal[minus], p))
        assign = np.zeros(m, dtype=bool)
        assign[plus] = True
        if prev is not None and np.array_equal(assign, prev):
            iterations = it
            converged = True
            break
        prev = assign
    return splits.SplitResult(members[plus], members[minus], iterations, converged)


def varied_reprs(rng, n, p):
    """Nonnegative rows from empty to dense (up to p nonzeros), some with ties."""
    density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.5, 0.9], size=(n, 1))
    rows = rng.random((n, p)) * (rng.random((n, p)) < density)
    tied = rng.random(n) < 0.3
    rows[tied] = np.ceil(rows[tied] * 3.0)
    return repr_set(rows)


class TestNdcgSplitMatchesReference:
    """The vectorized ndcg split reproduces the per-row reference bit for bit."""

    def test_ideal_inverses_bit_identical(self, rng):
        rs = varied_reprs(rng, 80, 300)
        lens = rs.matrix.row_nnz()
        assert lens.max() > 128 and np.any((lens > 8) & (lens < 128))
        for base in (None, 2.0, 10.0):
            got = splits._ideal_inverses(rs.matrix, base)
            assert np.array_equal(got, reference_ideal_inverses(rs.matrix, base))

    @pytest.mark.parametrize("base", [None, 2.0, 10.0])
    def test_split_results_equal(self, rng, base):
        for trial in range(12):
            n = int(rng.integers(2, 60))
            rs = varied_reprs(rng, n, int(rng.choice([5, 40, 300])))
            members = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                         replace=False))
            got = ndcg_split(members, rs, np.random.default_rng(trial), base=base)
            want = reference_ndcg_split(members, rs, np.random.default_rng(trial),
                                        base=base)
            assert np.array_equal(got.s_plus, want.s_plus)
            assert np.array_equal(got.s_minus, want.s_minus)
            assert got.iterations == want.iterations
            assert got.converged == want.converged

    def test_tree_partitions_equal(self, rng):
        rs = varied_reprs(rng, 150, 200)
        got = tree.leaves(tree.make_tree(rs, d0=8, split_kind="ndcg", seed=4))
        want, _ = tree_reference.make_tree(rs, d0=8, split_kind="ndcg", seed=4)
        assert np.array_equal(got.cluster_of, want.cluster_of)


def signed_reprs(rng, n, p):
    """Rows of mixed sign from empty to dense, some repeated exactly."""
    density = rng.choice([0.0, 0.1, 0.5, 0.9], size=(n, 1))
    rows = rng.normal(size=(n, p)) * (rng.random((n, p)) < density)
    copies = rng.random(n) < 0.3
    rows[copies] = rows[0]
    return repr_set(rows)


def assert_same_split(got, want):
    assert got.s_plus.tobytes() == want.s_plus.tobytes()
    assert got.s_minus.tobytes() == want.s_minus.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert (np.array(got.objective_trace).tobytes()
            == np.array(want.objective_trace).tobytes())


class TestKmeansSplitMatchesReference:
    """The shared 2-means loop reproduces the kmeans reference bit for bit."""

    @pytest.mark.parametrize("max_iters", [1, 2, 3, splits.MAX_ITERS])
    def test_split_results_equal(self, rng, max_iters):
        parities, unconverged = set(), 0
        for trial in range(30):
            n = int(rng.integers(2, 50))
            rs = signed_reprs(rng, n, int(rng.choice([3, 20, 120])))
            m = 2 if trial % 5 == 0 else int(rng.integers(2, n + 1))
            members = np.sort(rng.choice(n, size=m, replace=False))
            got = kmeans_split(members, rs, np.random.default_rng(trial), max_iters)
            want = reference_kmeans_split(members, rs, np.random.default_rng(trial),
                                          max_iters)
            assert_same_split(got, want)
            parities.add(m % 2)
            unconverged += not got.converged
        assert parities == {0, 1}
        if max_iters == 1:
            assert unconverged > 0

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_identical_rows_fall_back_alike(self, m):
        rs = repr_set([[0.5, -1.0, 0.0]] * 8)
        members = np.arange(8)[::-1][:m]
        for seed in range(3):
            got = kmeans_split(members, rs, np.random.default_rng(seed))
            want = reference_kmeans_split(members, rs, np.random.default_rng(seed))
            assert got.iterations == 0 and got.objective_trace == ()
            assert_same_split(got, want)

    def test_tree_partitions_equal(self, rng):
        rs = signed_reprs(rng, 150, 40)
        got = tree.leaves(tree.make_tree(rs, d0=8, split_kind="kmeans", seed=4))
        want, _ = tree_reference.make_tree(rs, d0=8, split_kind="kmeans", seed=4)
        assert np.array_equal(got.cluster_of, want.cluster_of)


class TestNdcgSplitShortRuns:
    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_unconverged_results_equal(self, rng, max_iters):
        for trial in range(12):
            n = int(rng.integers(2, 40))
            rs = varied_reprs(rng, n, 40)
            members = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                         replace=False))
            got = ndcg_split(members, rs, np.random.default_rng(trial), max_iters)
            want = reference_ndcg_split(members, rs, np.random.default_rng(trial),
                                        max_iters)
            assert np.array_equal(got.s_plus, want.s_plus)
            assert np.array_equal(got.s_minus, want.s_minus)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_identical_rows_fall_back_to_index_order(self):
        rs = repr_set([[1.0, 2.0, 0.0]] * 5)
        members = np.array([4, 0, 3, 1, 2])
        got = ndcg_split(members, rs, np.random.default_rng(0))
        assert_same_split(got, reference_index_order_split(members))
        assert list(got.s_plus) == [0, 1, 2]

    def test_trace_records_every_iteration(self, rng):
        rows = rng.random((11, 6)) * (rng.random((11, 6)) > 0.3)
        res = ndcg_split(np.arange(11), repr_set(rows), np.random.default_rng(2))
        assert len(res.objective_trace) == res.iterations >= 1


BAD_BASES = [0.0, -2.0, 1.0, float("nan"), float("inf")]


class TestLogBase:
    @pytest.mark.parametrize("base", BAD_BASES)
    def test_dcg_and_ndcg_reject(self, base):
        v = np.array([3.0, 1.0, 2.0])
        for fn in (dcg, ndcg):
            with pytest.raises(ValueError, match="log base must be"):
                fn(Ranking.rank_of(v), v, base)

    @pytest.mark.parametrize("base", BAD_BASES)
    def test_ndcg_split_rejects(self, base, rng):
        rs = repr_set([[1.0, 0.0], [0.0, 1.0]] * 2)
        with pytest.raises(ValueError, match="log base must be"):
            ndcg_split(np.arange(4), rs, rng, base=base)
        # even when every representative is empty and no gain is taken
        with pytest.raises(ValueError, match="log base must be"):
            ndcg_split(np.arange(4), repr_set([[0.0, 0.0]] * 4), rng, base=base)

    @pytest.mark.parametrize("base", [0.5, 2.0, math.e, 10.0])
    def test_valid_bases_accepted(self, base):
        v = np.array([3.0, 1.0, 2.0])
        assert ndcg(Ranking.rank_of(v), v, base) == pytest.approx(1.0)
