"""The level-synchronous tree build against the recursive reference build.

tests/tree_reference.py holds the former per-node construction; every
partition, per-depth split count and one-node split result here must match
it bit for bit.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from featagg import splits, synth
from featagg import tree as tree_module
from featagg.reprs import ReprSet, build as build_reprs
from featagg.sparse import SparseMatrix
from featagg.tree import SplitCounts, ensemble_trees, leaves, make_tree
from helpers import matrix_from_dense


@st.composite
def repr_sets(draw, signed: bool) -> ReprSet:
    """Rows from empty to dense, some with tied values, some repeated exactly
    (enough repeats force index-order fallbacks)."""
    n = draw(st.integers(2, 120))
    p = draw(st.sampled_from([1, 3, 8, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = rng.choice([0.0, 0.1, 0.5, 1.0], size=(n, 1))
    values = rng.normal(size=(n, p)) if signed else rng.random((n, p))
    rows = values * (rng.random((n, p)) < density)
    tied = rng.random(n) < 0.3
    rows[tied] = np.ceil(rows[tied] * 3.0)
    repeated = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    rows[repeated] = rows[rng.integers(n)]
    return ReprSet(matrix=matrix_from_dense(rows), kind="x")


def level_counts(tree):
    return [(c.nodes, c.iterations, c.non_converged, c.fallbacks) for c in tree.levels]


def assert_matches_reference(rs, d0, split_kind, seed, max_iters):
    tree = make_tree(rs, d0=d0, split_kind=split_kind, seed=seed, max_iters=max_iters)
    want, counts = ref.make_tree(rs, d0=d0, split_kind=split_kind, seed=seed,
                                 max_iters=max_iters)
    assert leaves(tree).cluster_of.tobytes() == want.cluster_of.tobytes()
    assert level_counts(tree) == counts
    return tree


SPLIT_SETTINGS = dict(d0=st.integers(1, 33), seed=st.integers(0, 2**40),
                      max_iters=st.integers(1, 4) | st.just(splits.MAX_ITERS))


@settings(max_examples=60, deadline=None)
@given(rs=repr_sets(signed=True), **SPLIT_SETTINGS)
def test_kmeans_levels_equal_reference(rs, d0, seed, max_iters):
    assert_matches_reference(rs, d0, "kmeans", seed, max_iters)


@settings(max_examples=60, deadline=None)
@given(rs=repr_sets(signed=False), **SPLIT_SETTINGS)
def test_ndcg_levels_equal_reference(rs, d0, seed, max_iters):
    assert_matches_reference(rs, d0, "ndcg", seed, max_iters)


@settings(max_examples=20, deadline=None)
@given(rs=repr_sets(signed=False), m=st.integers(1, 3), base_seed=st.integers(0, 2**40),
       d0=st.integers(1, 33), split_kind=st.sampled_from(["kmeans", "ndcg"]))
def test_ensemble_seeds_equal_reference(rs, m, base_seed, d0, split_kind):
    trees = ensemble_trees(rs, m, base_seed=base_seed, d0=d0, split_kind=split_kind)
    for t, tree in enumerate(trees):
        want, counts = ref.make_tree(rs, d0=d0, split_kind=split_kind, seed=base_seed + t)
        assert tree.seed == base_seed + t
        assert leaves(tree).cluster_of.tobytes() == want.cluster_of.tobytes()
        assert level_counts(tree) == counts


@settings(max_examples=40, deadline=None)
@given(rs=repr_sets(signed=False), data=st.data(), max_iters=st.integers(1, 4))
def test_one_node_splits_equal_reference(rs, data, max_iters):
    # members in any order: the order decides which rows the RNG draws
    n = rs.n_features
    members = np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(2, n))])
    seed = data.draw(st.integers(0, 2**32 - 1))
    for split, reference in ((splits.kmeans_split, ref.kmeans_split),
                             (splits.ndcg_split, ref.ndcg_split)):
        got = split(members, rs, np.random.default_rng(seed), max_iters)
        want = reference(members, rs, np.random.default_rng(seed), max_iters)
        assert got.s_plus.tobytes() == want.s_plus.tobytes()
        assert got.s_minus.tobytes() == want.s_minus.tobytes()
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert len(got.objective_trace) == got.iterations
    # kmeans centres are zero off the members' coordinates: the same trace
    got = splits.kmeans_split(members, rs, np.random.default_rng(seed), max_iters)
    want = ref.kmeans_split(members, rs, np.random.default_rng(seed), max_iters)
    assert (np.array(got.objective_trace).tobytes()
            == np.array(want.objective_trace).tobytes())


@pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
def test_identical_rows_fall_back_at_every_node(split_kind):
    rs = ReprSet(matrix=matrix_from_dense(np.tile([0.5, 0.0, 2.0], (21, 1))), kind="x")
    tree = assert_matches_reference(rs, 2, split_kind, 3, splits.MAX_ITERS)
    counts = tree.split_counts()
    assert counts.fallbacks == counts.nodes > 0 and counts.iterations == 0


@pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
def test_mostly_empty_rows_draw_only_where_rows_differ(monkeypatch, split_kind):
    # 400 representatives, 320 of them empty and the rest copies of 4 rows
    rng = np.random.default_rng(5)
    dense = np.zeros((400, 6))
    dense[rng.choice(400, 80, replace=False)] = rng.random((4, 6))[rng.integers(0, 4, 80)]
    rs = ReprSet(matrix=matrix_from_dense(dense), kind="x")
    calls = []
    split_level = tree_module.split_level
    monkeypatch.setattr(tree_module, "split_level", lambda matrix, members, ptr, picks, *args:
                        calls.append((members, ptr, picks))
                        or split_level(matrix, members, ptr, picks, *args))
    tree = assert_matches_reference(rs, 8, split_kind, 2, splits.MAX_ITERS)
    # every split node draws, in the tree's node order; a node uses its
    # draws (picks not -1) exactly when its rows differ and one of its
    # attempts hits two different rows, as numpy's generator for its bit
    # path draws them
    split_keys, level = [], [(tree.root, 1)]  # depth by depth, left to right
    while level:
        split = [(node, key) for node, key in level if not node.is_leaf]
        split_keys += [key for _, key in split]
        level = [child for node, key in split
                 for child in ((node.left, 2 * key), (node.right, 2 * key + 1))]
    keys = iter(split_keys)
    differ, used = [], []
    for members, ptr, picks in calls:
        for k, (lo, hi) in enumerate(zip(ptr[:-1].tolist(), ptr[1:].tolist())):
            rows = dense[members[lo:hi]]
            ids = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
            node_rng = np.random.default_rng(np.random.SeedSequence([2, next(keys)]))
            want = splits._pick_two_distinct(hi - lo, lambda a, b: ids[a] != ids[b],
                                             node_rng) or (-1, -1)
            assert tuple(picks[k].tolist()) == want
            differ.append(not np.all(rows == rows[0]))
            used.append(picks[k, 0] >= 0)
    assert next(keys, None) is None
    differ, used = np.array(differ), np.array(used)
    assert (~differ).sum() > 10 and used.sum() > differ.sum() // 2
    assert not (used & ~differ).any()
    assert tree.split_counts().fallbacks == (~used).sum()


@pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_zero_and_nan_rows_equal_reference(split_kind, seed):
    # 90 representatives copied from 5 rows, two of which store zeros, with
    # about half of those zeros flipped to -0.0 (equal to 0.0), and for
    # kmeans 4 rows holding a NaN (equal to no row, not even a copy of
    # itself); ndcg takes nonnegative representatives, and the dense
    # reference's ndcg centres rank a NaN coordinate apart from the sparse
    # ones, so its rows hold none
    rng = np.random.default_rng(seed)
    pool = [([0, 2], [0.0, 1.0]), ([1, 3], [2.0, 0.0]), ([0, 1, 2], [1.0, 0.5, 0.25]),
            ([3], [0.75]), ([], [])]
    rows = [pool[i] for i in rng.integers(0, len(pool), 90)]
    indptr = np.concatenate(([0], np.cumsum([len(i) for i, _ in rows])))
    indices = np.concatenate([i for i, _ in rows]).astype(np.int64)
    values = np.concatenate([v for _, v in rows]).astype(np.float64)
    values[(values == 0.0) & (rng.random(values.shape[0]) < 0.5)] = -0.0
    nan = 4 if split_kind == "kmeans" else 0
    values[rng.choice(np.flatnonzero(values > 0.0), nan, replace=False)] = np.nan
    rs = ReprSet(matrix=SparseMatrix(90, 4, indptr, indices, values, validate=False),
                 kind="x")
    tree = assert_matches_reference(rs, 4, split_kind, seed, splits.MAX_ITERS)
    counts = tree.split_counts()
    assert counts.fallbacks > 0 and counts.iterations > 0


# The benchmark's seed-0 shapes: generator arguments and the rows kept as
# train (all rows when None).
SHAPES = {
    "cluster": (synth.random_dataset, dict(n=3000, d=2048, nnz_per_row=16,
                                           n_labels=64, labels_per_row=2), None),
    "rerank": (synth.powerlaw_dataset, dict(n=1000, d=2048, n_labels=250, bundle_size=3,
                                            zipf_exponent=1.3, noise_features=4), 350),
    "impute": (synth.duplicated_group_dataset, dict(n=2500, groups=512, copies=8,
                                                    active_groups=6, n_labels=16), 1875),
}

# Split counts of the recursive build on these shapes.
SEED0_COUNTS = {
    ("cluster", "kmeans"): SplitCounts(255, 746, 0, 0),
    ("cluster", "ndcg"): SplitCounts(255, 756, 0, 0),
    ("rerank", "kmeans"): SplitCounts(255, 384, 0, 112),
    ("impute", "kmeans"): SplitCounts(511, 1031, 0, 3),
}


@pytest.fixture(scope="module")
def seed0_reprs():
    out = {}
    for name, (gen, args, n_train) in SHAPES.items():
        ds = gen(np.random.default_rng(0), **args)
        ds = ds[0] if isinstance(ds, tuple) else ds
        if n_train is not None:
            ds = synth.split_points(ds, n_train)[0]
        out[name] = build_reprs(ds, mode="x", doc_fraction=0.25)
    return out


@pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_seed0_shapes_equal_reference(seed0_reprs, shape, split_kind):
    tree = assert_matches_reference(seed0_reprs[shape], 8, split_kind, 0, splits.MAX_ITERS)
    if (shape, split_kind) in SEED0_COUNTS:
        assert tree.split_counts() == SEED0_COUNTS[shape, split_kind]


def test_counts_ignored_by_equality_and_summed(rng):
    rs = ReprSet(matrix=matrix_from_dense(rng.random((40, 5))), kind="x")
    tree = make_tree(rs, d0=4, seed=1)
    assert tree.levels and replace(tree, levels=()) == tree
    total = tree.split_counts()
    assert total.nodes == sum(c.nodes for c in tree.levels) == len(leaves(tree).clusters) - 1
    assert total.iterations == sum(c.iterations for c in tree.levels)
    assert make_tree(rs, d0=40).levels == ()


@pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
def test_level_memory_follows_nnz_not_nodes_times_p(split_kind):
    # one level of 256 nodes x 16 features over p = 100 000 coordinates
    d, p, nnz, size = 4096, 100_000, 16, 16
    rng = np.random.default_rng(0)
    indices = np.concatenate([np.sort(rng.choice(p, nnz, replace=False)) for _ in range(d)])
    matrix = SparseMatrix(d, p, np.arange(0, d * nnz + 1, nnz), indices,
                          rng.random(d * nnz), validate=False)
    weights, centre = splits.scoring(split_kind, matrix)
    members = rng.permutation(d)
    node_ptr = np.arange(0, d + 1, size)
    picks = np.tile([0, 1], (d // size, 1))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        splits.split_level(matrix, members, node_ptr, picks, splits.MAX_ITERS,
                           None if weights is None else weights[members], centre)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (d // size) * p * 8 / 10  # dense centres per node
    assert peak < 256 * d * nnz  # a few dozen words per stored entry
