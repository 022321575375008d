from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from featagg.cluster_quality import balance_factor
from featagg.errors import InvariantError
from featagg.reprs import ReprSet
from featagg.tree import (
    FeaturePartition,
    ensemble_trees,
    leaves,
    load_partition,
    make_tree,
    save_partition,
)

from helpers import matrix_from_dense, npz_arrays, write_npz


def random_reprs(rng, d, p=6, density=0.5) -> ReprSet:
    rows = rng.random((d, p)) * (rng.random((d, p)) > (1 - density))
    return ReprSet(matrix=matrix_from_dense(rows), kind="x")


def leaf_size_oracle(m: int, d0: int) -> list[int]:
    """Sizes produced by even halving until a node fits in a leaf."""
    if m <= d0:
        return [m]
    return leaf_size_oracle((m + 1) // 2, d0) + leaf_size_oracle(m // 2, d0)


class TestMakeTree:
    def test_single_leaf_when_d_fits(self, rng):
        tree = make_tree(random_reprs(rng, 8), d0=8, seed=0)
        part = leaves(tree)
        assert part.n_clusters == 1
        assert list(part.clusters[0]) == list(range(8))

    def test_nine_features_splits_five_four(self, rng):
        part = leaves(make_tree(random_reprs(rng, 9), d0=8, seed=0))
        assert sorted(part.sizes().tolist()) == [4, 5]

    def test_leaf_size_multiset_matches_recursion_oracle(self, rng):
        d = 5000
        part = leaves(make_tree(random_reprs(rng, d, p=4, density=0.4), d0=8, seed=1))
        assert Counter(part.sizes().tolist()) == Counter(leaf_size_oracle(d, 8))

    def test_invalid_leaf_size(self, rng):
        with pytest.raises(ValueError):
            make_tree(random_reprs(rng, 4), d0=0)

    def test_invalid_split_kind(self, rng):
        with pytest.raises(ValueError):
            make_tree(random_reprs(rng, 4), d0=2, split_kind="other")

    @pytest.mark.parametrize("split_kind", ["kmeans", "ndcg"])
    @pytest.mark.parametrize("d0", [2, 8])
    def test_max_iters_below_one_rejected_before_any_split(self, rng, split_kind, d0):
        # d0 = 8 holds all 4 features in one leaf, so no split would run
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                make_tree(random_reprs(rng, 4), d0=d0, split_kind=split_kind,
                          max_iters=max_iters)

    def test_deterministic_given_seed(self, rng):
        rs = random_reprs(rng, 40)
        p1 = leaves(make_tree(rs, d0=4, seed=7))
        p2 = leaves(make_tree(rs, d0=4, seed=7))
        assert np.array_equal(p1.cluster_of, p2.cluster_of)

    def test_seeds_generally_differ(self, rng):
        rs = random_reprs(rng, 64)
        p1 = leaves(make_tree(rs, d0=4, seed=0))
        p2 = leaves(make_tree(rs, d0=4, seed=1))
        assert not np.array_equal(p1.cluster_of, p2.cluster_of)

    @pytest.mark.parametrize("seed", [np.int64(3), np.int32(3), np.uint64(3), np.int8(-1)])
    def test_numpy_integer_seed_equals_python_int(self, rng, tmp_path, seed):
        rs = random_reprs(rng, 40)
        tree = make_tree(rs, d0=4, seed=seed)
        assert type(tree.seed) is int and tree.seed == int(seed)
        assert np.array_equal(leaves(tree).cluster_of,
                              leaves(make_tree(rs, d0=4, seed=int(seed))).cluster_of)
        path = str(tmp_path / "part.npz")
        save_partition(leaves(tree), path)
        assert load_partition(path).seed == int(seed)

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected(self, rng, seed):
        with pytest.raises(ValueError, match="not a bool"):
            make_tree(random_reprs(rng, 20), d0=4, seed=seed)
        with pytest.raises(ValueError, match="not a bool"):
            ensemble_trees(random_reprs(rng, 20), 2, base_seed=seed, d0=4)

    def test_ndcg_kind(self, rng):
        part = leaves(make_tree(random_reprs(rng, 20), d0=4,
                                split_kind="ndcg", seed=2))
        assert Counter(part.sizes().tolist()) == Counter(leaf_size_oracle(20, 4))


class TestLeaves:
    def test_two_leaf_partition(self, rng):
        part = leaves(make_tree(random_reprs(rng, 9), d0=8, seed=0))
        assert part.n_clusters == 2
        assert sorted(part.sizes().tolist()) == [4, 5]

    def test_single_leaf_identity_coverage(self, rng):
        part = leaves(make_tree(random_reprs(rng, 5), d0=8, seed=0))
        assert np.array_equal(part.cluster_of, np.zeros(5, dtype=np.int64))

    def test_balance_bound(self, rng):
        for d0 in (2, 3, 8):
            part = leaves(make_tree(random_reprs(rng, 100), d0=d0, seed=3))
            assert balance_factor(part) <= d0 / ((d0 + 1) // 2) <= 2

    def test_cluster_ids_in_leaf_order(self, rng):
        tree = make_tree(random_reprs(rng, 12), d0=3, seed=1)
        part = leaves(tree)
        # walking the tree left-to-right reproduces cluster ids 0..K-1
        walk = []
        def visit(node):
            if node.is_leaf:
                walk.append(node.features)
            else:
                visit(node.left)
                visit(node.right)
        visit(tree.root)
        for k, feats in enumerate(walk):
            assert np.array_equal(part.clusters[k], feats)


class TestEnsemble:
    def test_size_one_equals_make_tree(self, rng):
        rs = random_reprs(rng, 30)
        single = ensemble_trees(rs, 1, base_seed=5, d0=4)
        direct = leaves(make_tree(rs, d0=4, seed=5))
        assert np.array_equal(leaves(single[0]).cluster_of, direct.cluster_of)

    def test_three_realizations_hold_invariants(self, rng):
        rs = random_reprs(rng, 50)
        parts = [leaves(t) for t in ensemble_trees(rs, 3, base_seed=0, d0=8)]
        assert len(parts) == 3
        for part in parts:
            assert np.array_equal(
                np.sort(np.concatenate(part.clusters)), np.arange(50)
            )

    def test_identical_reprs_degenerate(self):
        rows = np.ones((16, 4))
        rs = ReprSet(matrix=matrix_from_dense(rows), kind="x")
        parts = [leaves(t) for t in ensemble_trees(rs, 3, base_seed=0, d0=4)]
        for part in parts:
            assert np.array_equal(
                np.sort(np.concatenate(part.clusters)), np.arange(16)
            )

    def test_numpy_integer_base_seed(self, rng):
        rs = random_reprs(rng, 30)
        got = ensemble_trees(rs, 2, base_seed=np.int64(1), d0=4)
        want = ensemble_trees(rs, 2, base_seed=1, d0=4)
        assert [t.seed for t in got] == [1, 2]
        for a, b in zip(got, want):
            assert np.array_equal(leaves(a).cluster_of, leaves(b).cluster_of)

    def test_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            ensemble_trees(random_reprs(rng, 8), 0)


class TestFeaturePartition:
    def test_rejects_overlap(self):
        with pytest.raises(InvariantError):
            FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([1, 2])])

    def test_rejects_gap(self):
        with pytest.raises(InvariantError):
            FeaturePartition.from_clusters(4, [np.array([0, 1]), np.array([3])])

    def test_rejects_empty_cluster(self):
        with pytest.raises(InvariantError):
            FeaturePartition.from_clusters(2, [np.array([0, 1]), np.array([])])

    @pytest.mark.parametrize("d, clusters, message", [
        (3, [[0, 1], [], [5]], "cluster 1 is empty"),
        (3, [[2, 0], [1, 9], []], "cluster 1 has out-of-range features"),
        (3, [[0, 1], [1, 9]], "cluster 1 has out-of-range features"),
        (4, [[0, 1], [3], [1, 2]], "clusters overlap"),
        (3, [[0, 0], [1]], "clusters overlap"),  # would leave feature 2 uncovered
        (3, [[2, 0], [1]], None),
    ])
    def test_first_faulty_cluster_is_reported(self, d, clusters, message):
        if message is None:
            part = FeaturePartition.from_clusters(d, [np.array(c) for c in clusters])
            assert [c.tolist() for c in part.clusters] == [[0, 2], [1]]
            assert part.cluster_of.tolist() == [0, 1, 0]
            return
        with pytest.raises(InvariantError, match=f"^{message}$"):
            FeaturePartition.from_clusters(d, [np.array(c, dtype=np.int64)
                                               for c in clusters])

    def test_json_round_trip(self, tmp_path, rng):
        # the archive is written at exactly the path given, .json or not
        part = leaves(make_tree(random_reprs(rng, 17), d0=4, seed=9))
        cases = [part, replace(part, d0=None, seed=None), replace(part, seed=2**64 + 3)]
        for k, part in enumerate(cases):
            path = tmp_path / f"part{k}.json"
            save_partition(part, str(path))
            again = load_partition(str(path))
            for name in ("cluster_of", "members", "ptr"):
                assert getattr(again, name).tobytes() == getattr(part, name).tobytes()
            assert (again.d0, again.seed) == (part.d0, part.seed)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"part{k}.json" for k in range(3)]

    @pytest.mark.parametrize("config", [
        "[8, 0]", "{", '{"d0": 8}', '{"d0": 8, "seed": 0, "K": 2}', '{"d0": "8", "seed": 0}',
        '{"d0": 8, "seed": true}', '{"d0": 8.0, "seed": 0}',
    ])
    def test_malformed_config_is_value_error(self, tmp_path, config):
        path = tmp_path / "part.npz"
        save_partition(FeaturePartition.from_clusters(2, [np.array([0, 1])]), str(path))
        write_npz(path, {**npz_arrays(path), "config": np.array(config)})
        with pytest.raises(ValueError, match="^partition config"):
            load_partition(str(path))
