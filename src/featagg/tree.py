"""Balanced hierarchy over features, partition extraction and partition files.

The tree grows one depth at a time: every node of a depth with more than d0
features is split evenly in one vectorized pass (splits.split_level), and
smaller nodes become leaves. A node's two initial rows are those that
np.random.default_rng(SeedSequence([seed % 2**63, key])) draws, key being its
root-to-node bit path, so the tree does not depend on build order. The
tree's shape depends on d and d0 alone, so kernels.pivot_attempts makes the
draws of every node of the tree at once, bit for bit, before the first
split. Each depth compares all of its drawn pairs in one splits._rows_differ
call and keeps per node the first pair of distinct rows. When d > d0 every
leaf ends up with between floor((d0+1)/2) and d0 features.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .dataio import json_object, json_text, load_arrays, save_arrays
from .errors import InvariantError
from .reprs import ReprSet
from .sparse import _value_eq
# kmeans_split and ndcg_split stay importable from here, where
# perfbench/tracing.py looks them up; make_tree runs split_level instead
from .splits import (INIT_ATTEMPTS, MAX_ITERS, _rows_differ, kmeans_split,  # noqa: F401
                     ndcg_split, scoring, split_level)

SPLIT_KINDS = ("kmeans", "ndcg")


@dataclass
class TreeNode:
    features: np.ndarray | None = None  # leaf payload, sorted ascending
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    __eq__ = _value_eq

    @property
    def is_leaf(self) -> bool:
        return self.features is not None


@dataclass(frozen=True)
class SplitCounts:
    """Split work over some nodes: nodes split, 2-means iterations, splits
    that reached max_iters without converging, and index-order fallbacks
    (no two distinct representatives drawn; 0 iterations)."""

    nodes: int = 0
    iterations: int = 0
    non_converged: int = 0
    fallbacks: int = 0

    def __add__(self, other: "SplitCounts") -> "SplitCounts":
        return SplitCounts(self.nodes + other.nodes, self.iterations + other.iterations,
                           self.non_converged + other.non_converged,
                           self.fallbacks + other.fallbacks)


@dataclass(frozen=True)
class ClusterTree:
    """A grown tree; levels holds the split counts of each depth that split
    (equality ignores them)."""

    root: TreeNode
    d: int
    d0: int
    split_kind: str
    seed: int
    levels: tuple[SplitCounts, ...] = field(default=(), compare=False)
    __eq__ = _value_eq

    def split_counts(self) -> SplitCounts:
        return sum(self.levels, SplitCounts())


@dataclass(frozen=True)
class FeaturePartition:
    """K disjoint nonempty clusters covering [0, d), ids in leaf order.

    Cluster k holds the features members[ptr[k]:ptr[k + 1]], ascending;
    clusters holds the same K pieces as views into members.
    """

    cluster_of: np.ndarray
    members: np.ndarray
    ptr: np.ndarray
    d0: int | None = None
    seed: int | None = None
    __eq__ = _value_eq

    @property
    def d(self) -> int:
        return int(self.cluster_of.shape[0])

    @property
    def n_clusters(self) -> int:
        return self.ptr.shape[0] - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    @cached_property
    def clusters(self) -> list[np.ndarray]:
        ends = self.ptr.tolist()
        return [self.members[s:e] for s, e in zip(ends[:-1], ends[1:])]

    @classmethod
    def from_clusters(cls, d: int, clusters: list[np.ndarray], d0: int | None = None,
                      seed: int | None = None) -> "FeaturePartition":
        clusters = [np.asarray(c, dtype=np.int64) for c in clusters]
        sizes = np.array([c.shape[0] for c in clusters], dtype=np.int64)
        flat = np.concatenate(clusters) if clusters else np.empty(0, dtype=np.int64)
        return cls.from_sizes(d, flat, sizes, d0=d0, seed=seed)

    @classmethod
    def from_sizes(cls, d: int, features: np.ndarray, sizes: np.ndarray,
                   d0: int | None = None, seed: int | None = None) -> "FeaturePartition":
        """Cluster k holds the next sizes[k] entries of features, in any
        order; the sizes are non-negative and sum to len(features)."""
        flat = np.asarray(features, dtype=np.int64)
        owner = np.repeat(np.arange(sizes.shape[0]), sizes)
        # the first faulty cluster raises, and for one cluster an empty one
        # comes before out-of-range features, which come before a feature
        # that an earlier cluster (or an earlier entry of its own) holds
        by_feature = kernels.group_order(0, flat)
        again = by_feature[1:][flat[by_feature[1:]] == flat[by_feature[:-1]]]
        faults = [
            (int(ks.min()), rank) for rank, ks in enumerate((
                np.flatnonzero(sizes == 0),
                owner[(flat < 0) | (flat >= d)],
                owner[again],
            )) if ks.size
        ]
        if faults:
            k, rank = min(faults)
            raise InvariantError((f"cluster {k} is empty",
                                  f"cluster {k} has out-of-range features",
                                  "clusters overlap")[rank])
        if flat.shape[0] != d:
            raise InvariantError(f"clusters cover {flat.shape[0]} of {d} features")
        cluster_of = np.empty(d, dtype=np.int64)
        cluster_of[flat] = owner
        return cls(cluster_of, flat[kernels.group_order(owner, flat)],
                   np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
                   d0=d0, seed=seed)


# the arrays that store a partition, in a partition file and in a
# co-occurrence file: d, the cluster sizes and FeaturePartition.members
PARTITION_ARRAYS = {"d": ("iu", 0), "sizes": ("iu", 1), "features": ("iu", 1)}
_PARTITION_FILE = {**PARTITION_ARRAYS, "config": ("U", 0)}


def partition_arrays(part: FeaturePartition) -> dict[str, np.ndarray]:
    return {"d": np.array(part.d, dtype=np.int64), "sizes": part.sizes(),
            "features": part.members}


def decode_partition(arrays: dict[str, np.ndarray], what: str, d0: int | None = None,
                     seed: int | None = None) -> FeaturePartition:
    """The partition that partition_arrays stored, from the PARTITION_ARRAYS
    that dataio.load_arrays read.

    A malformed one is a ValueError whose message begins with what; clusters
    that overlap, leave a feature uncovered or are empty are an
    InvariantError, as for any partition.
    """
    d = int(arrays["d"])
    sizes = arrays["sizes"].astype(np.int64)
    features = arrays["features"]
    if d < 0:
        raise ValueError(f"{what} d must be a non-negative integer, got {d}")
    if np.any((sizes < 0) | (sizes > d)):
        raise ValueError(f"{what} cluster sizes must be non-negative and at most d")
    if features.shape[0] != d or int(sizes.sum()) != d:
        raise ValueError(
            f"{what} clusters hold {features.shape[0]} features in sizes "
            f"summing to {int(sizes.sum())}, expected d = {d}"
        )
    part = FeaturePartition.from_sizes(d, features, sizes, d0=d0, seed=seed)
    # a partition sorts each cluster, which would permute a stored block's rows
    if not np.array_equal(part.members, features):
        raise ValueError(f"{what} features must increase within each cluster")
    return part


def save_partition(part: FeaturePartition, path: str) -> None:
    """Write part as an .npz archive at path, whatever its extension; d0 and
    seed go to one JSON text field, config."""
    save_arrays(path, {**partition_arrays(part),
                       "config": json_text({"d0": part.d0, "seed": part.seed})},
                "partition")


def load_partition(path: str) -> FeaturePartition:
    """Read a partition saved by save_partition; a malformed file is a
    ValueError."""
    arrays = load_arrays(path, "partition", _PARTITION_FILE, earlier="JSON or text")
    config = json_object(arrays["config"], "partition config")
    if set(config) != {"d0", "seed"} or not all(
            v is None or type(v) is int for v in config.values()):
        raise ValueError("partition config must hold d0 and seed, each an "
                         f"integer or null, got {str(arrays['config'])}")
    return decode_partition(arrays, "partition", **config)


def _int_seed(seed) -> int:
    """seed as a Python int: any integer but a bool, numpy integers included;
    anything else is a ValueError."""
    if isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, not a bool, got {seed}")
    try:
        return operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None


def _internal_nodes(d: int, d0: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit paths and sizes of the nodes a tree over d features splits, depth
    by depth and left to right within a depth: the shape depends on d and
    d0 alone, each split giving sizes ceil(m/2) and floor(m/2)."""
    keys, sizes = np.array([1]), np.array([d])
    found = [(keys[:0], sizes[:0])]
    while True:
        inner = sizes > d0
        if not inner.any():
            return tuple(np.concatenate(x) for x in zip(*found))
        keys, sizes = keys[inner], sizes[inner]
        found.append((keys, sizes))
        # the left child's bit path appends 0 and the right child's 1
        keys = (2 * keys[:, None] + [0, 1]).ravel()
        sizes = np.column_stack(((sizes + 1) // 2, sizes // 2)).ravel()


def _first_distinct(pairs: np.ndarray, differ: np.ndarray) -> np.ndarray:
    """Per node k, the first of its drawn pairs pairs[k] whose rows differ
    (differ[k], one flag per pair), or (-1, -1)."""
    picks = pairs[np.arange(pairs.shape[0]), np.argmax(differ, axis=1)]
    picks[~differ.any(axis=1)] = -1
    return picks


def make_tree(
    rs: ReprSet,
    d0: int = 8,
    split_kind: str = "kmeans",
    seed: int = 0,
    max_iters: int = MAX_ITERS,
) -> ClusterTree:
    """Grow the balanced hierarchy over all of rs's features, one depth at a
    time: every node of a depth with more than d0 features is split by one
    splits.split_level call, and the others become leaves. seed is any
    integer, numpy's included, but not a bool."""
    d = rs.n_features
    if d < 1:
        raise ValueError("need at least one feature")
    if d0 < 1:
        raise ValueError("leaf size must be at least 1")
    if split_kind not in SPLIT_KINDS:
        raise ValueError(f"split_kind must be one of {SPLIT_KINDS}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    seed = _int_seed(seed)
    root = TreeNode()
    # the depth's nodes and their members, node k's at members[ptr[k]:ptr[k + 1]]
    nodes = [root]
    members, ptr = np.arange(d, dtype=np.int64), np.array([0, d])
    weights, centre = scoring(split_kind, rs.matrix) if d > d0 else (None, None)
    pairs = kernels.pivot_attempts(seed, *_internal_nodes(d, d0), INIT_ATTEMPTS)
    levels = []
    while True:
        sizes = np.diff(ptr)
        for k in np.flatnonzero(sizes <= d0).tolist():
            nodes[k].features = np.sort(members[ptr[k]:ptr[k + 1]])
        at = np.flatnonzero(sizes > d0)
        if not at.shape[0]:
            break
        members = members[kernels.concat_ranges(ptr[at], ptr[at + 1])]
        sizes = sizes[at]
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        split = at.tolist()
        # a node whose drawn rows are all equal splits in index order
        drawn, pairs = pairs[:len(split)], pairs[len(split):]
        rows = members[ptr[:-1, None, None] + drawn]
        picks = _first_distinct(drawn, _rows_differ(rs.matrix, rows[..., 0], rows[..., 1]))
        order, iterations, converged = split_level(
            rs.matrix, members, ptr, picks, max_iters,
            None if weights is None else weights[members], centre)
        levels.append(SplitCounts(len(split), int(iterations.sum()),
                                  int((~converged).sum()), int((iterations == 0).sum())))
        # each node's plus half becomes its left child, its minus half its right
        members = members[order]
        ptr = np.append(np.column_stack((ptr[:-1], ptr[:-1] + (sizes + 1) // 2)).ravel(),
                        ptr[-1])
        parents, nodes = [nodes[k] for k in split], []
        for node in parents:
            node.left, node.right = TreeNode(), TreeNode()
            nodes += [node.left, node.right]
    return ClusterTree(root=root, d=d, d0=d0, split_kind=split_kind, seed=seed,
                       levels=tuple(levels))


def leaves(tree: ClusterTree) -> FeaturePartition:
    """Partition from the tree's leaves, ids assigned left to right."""
    clusters: list[np.ndarray] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            clusters.append(node.features)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return FeaturePartition.from_clusters(
        tree.d, clusters, d0=tree.d0, seed=tree.seed
    )


def ensemble_trees(
    rs: ReprSet,
    m: int,
    base_seed: int = 0,
    d0: int = 8,
    split_kind: str = "kmeans",
    max_iters: int = MAX_ITERS,
) -> list[ClusterTree]:
    """m independent trees from seeds base_seed .. base_seed + m - 1."""
    if m < 1:
        raise ValueError("ensemble size must be at least 1")
    base_seed = _int_seed(base_seed)
    return [make_tree(rs, d0=d0, split_kind=split_kind, seed=base_seed + t,
                      max_iters=max_iters) for t in range(m)]
