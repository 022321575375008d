"""Balanced hierarchy over features and partition extraction.

The tree grows one depth at a time: every node of a depth with more than d0
features is split evenly in one vectorized pass (splits.split_level), and
smaller nodes become leaves. Each node draws its RNG from (seed, root-to-node
bit path), so the tree does not depend on build order. When d > d0 every
leaf ends up with between floor((d0+1)/2) and d0 features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ParseError
from .kernels import concat_ranges
from .reprs import ReprSet
# kmeans_split and ndcg_split stay importable from here, where
# perfbench/tracing.py looks them up; make_tree runs split_level instead
from .splits import MAX_ITERS, kmeans_split, ndcg_split, scoring, split_level  # noqa: F401

SPLIT_KINDS = ("kmeans", "ndcg")


@dataclass
class TreeNode:
    features: np.ndarray | None = None  # leaf payload, sorted ascending
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

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

    def split_counts(self) -> SplitCounts:
        return sum(self.levels, SplitCounts())


@dataclass(frozen=True)
class FeaturePartition:
    """K disjoint nonempty clusters covering [0, d), ids in leaf order."""

    n_clusters: int
    cluster_of: np.ndarray
    clusters: list[np.ndarray]
    d0: int | None = None
    seed: int | None = None

    @property
    def d(self) -> int:
        return int(self.cluster_of.shape[0])

    def sizes(self) -> np.ndarray:
        return np.array([c.shape[0] for c in self.clusters], dtype=np.int64)

    @classmethod
    def from_clusters(
        cls,
        d: int,
        clusters: list[np.ndarray],
        d0: int | None = None,
        seed: int | None = None,
    ) -> "FeaturePartition":
        clusters = [np.asarray(c, dtype=np.int64) for c in clusters]
        sizes = np.array([c.shape[0] for c in clusters], dtype=np.int64)
        flat = np.concatenate(clusters) if clusters else np.empty(0, dtype=np.int64)
        owner = np.repeat(np.arange(len(clusters)), sizes)
        # the first faulty cluster raises, and for one cluster an empty one
        # comes before out-of-range features, which come before a feature
        # that an earlier cluster (or an earlier entry of its own) holds
        by_feature = np.argsort(flat, kind="stable")
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
        clusters = split_sizes(flat[np.lexsort((flat, owner))], sizes)
        return cls(len(clusters), cluster_of, clusters, d0=d0, seed=seed)

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "K": self.n_clusters,
            "d0": self.d0,
            "seed": self.seed,
            "clusters": [c.tolist() for c in self.clusters],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "FeaturePartition":
        """Parse to_json output; a malformed payload is a ValueError."""
        payload = json.loads(text)
        d, clusters = check_partition_payload(payload)
        return cls.from_clusters(
            d, clusters, d0=payload.get("d0"), seed=payload.get("seed")
        )

    def to_flat_text(self) -> str:
        lines = [f"{j} {k}" for j, k in enumerate(self.cluster_of)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_flat_text(cls, text: str) -> "FeaturePartition":
        """Parse to_flat_text output, one "feature_id cluster_id" per line.

        Blank lines are skipped, and d is the number of other lines. A line
        without exactly two integers, a feature id outside [0, d) or a
        repeated one is a ParseError naming its 1-based line; cluster ids
        that are not contiguous from 0 are an InvariantError.
        """
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise ParseError(
                    f"expected 'feature_id cluster_id', got {line.strip()!r}",
                    line=lineno,
                )
            try:
                entries.append((lineno, int(tokens[0]), int(tokens[1])))
            except ValueError:
                raise ParseError(f"non-integer id in {line.strip()!r}",
                                 line=lineno) from None
        d = len(entries)
        cluster_of = np.empty(d, dtype=np.int64)
        first_line = {}
        for lineno, j, k in entries:
            if not 0 <= j < d:
                raise ParseError(f"feature id {j} out of range [0, {d})", line=lineno)
            if j in first_line:
                raise ParseError(
                    f"feature id {j} repeated (first on line {first_line[j]})",
                    line=lineno,
                )
            if not 0 <= k < d:
                raise InvariantError("cluster ids must be contiguous from 0")
            first_line[j] = lineno
            cluster_of[j] = k
        sizes = np.bincount(cluster_of)
        if np.any(sizes == 0):
            raise InvariantError("cluster ids must be contiguous from 0")
        return cls.from_clusters(
            d, split_sizes(np.argsort(cluster_of, kind="stable"), sizes)
        )


def split_sizes(a: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """a cut into consecutive pieces of the given sizes, which sum to len(a)."""
    ends = np.cumsum(sizes).tolist()
    return [a[start:end] for start, end in zip([0] + ends[:-1], ends)]


def check_partition_payload(payload) -> tuple[int, list[np.ndarray]]:
    """d and the clusters of a parsed partition payload, or a ValueError.

    payload is the JSON object written by to_json. A declared K that differs
    from the cluster count is an InvariantError.
    """
    if not isinstance(payload, dict):
        raise ValueError("partition file must hold a JSON object")
    missing = [k for k in ("d", "K", "clusters") if k not in payload]
    if missing:
        raise ValueError(f"partition file lacks {', '.join(missing)}")
    for key in ("d", "K"):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(
                f"partition {key} must be a non-negative integer, got {value!r}"
            )
    items = payload["clusters"]
    if not isinstance(items, list):
        raise ValueError("partition clusters must be a list")
    clusters = []
    for k, item in enumerate(items):
        if not isinstance(item, list) or any(isinstance(v, list) for v in item):
            raise ValueError(f"partition cluster {k} must be 1-D: a list of feature ids")
        for v in item:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"partition cluster {k} is not numeric: {v!r}")
            if not isinstance(v, int):
                raise ValueError(f"partition cluster {k} holds non-integer feature ids: {v!r}")
        try:
            clusters.append(np.array(item, dtype=np.int64))
        except OverflowError:
            raise ValueError(f"partition cluster {k} holds a feature id out of range") from None
    if payload["K"] != len(clusters):
        raise InvariantError("declared K does not match cluster count")
    return payload["d"], clusters


def save_partition(part: FeaturePartition, path: str, fmt: str = "json") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(part.to_json() if fmt == "json" else part.to_flat_text())
        if fmt == "json":
            fh.write("\n")


def load_partition(path: str) -> FeaturePartition:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return FeaturePartition.from_json(text)
    return FeaturePartition.from_flat_text(text)


def _node_rng(seed: int, node_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, node_key]))


def make_tree(
    rs: ReprSet,
    d0: int = 8,
    split_kind: str = "kmeans",
    seed: int = 0,
    max_iters: int = MAX_ITERS,
) -> ClusterTree:
    """Grow the balanced hierarchy over all of rs's features, one depth at a
    time: every node of a depth with more than d0 features is split by one
    splits.split_level call, and the others become leaves."""
    d = rs.n_features
    if d < 1:
        raise ValueError("need at least one feature")
    if d0 < 1:
        raise ValueError("leaf size must be at least 1")
    if split_kind not in SPLIT_KINDS:
        raise ValueError(f"split_kind must be one of {SPLIT_KINDS}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    root = TreeNode()
    # the depth's nodes, their bit paths (left child appends 0, right child
    # appends 1) and their members, node k's at members[ptr[k]:ptr[k + 1]]
    nodes, keys = [root], [1]
    members, ptr = np.arange(d, dtype=np.int64), np.array([0, d])
    weights, centre = scoring(split_kind, rs.matrix) if d > d0 else (None, None)
    levels = []
    while True:
        sizes = np.diff(ptr)
        for k in np.flatnonzero(sizes <= d0).tolist():
            nodes[k].features = np.sort(members[ptr[k]:ptr[k + 1]])
        at = np.flatnonzero(sizes > d0)
        if not at.shape[0]:
            break
        members = members[concat_ranges(ptr[at], ptr[at + 1])]
        sizes = sizes[at]
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        split = at.tolist()
        order, iterations, converged = split_level(
            rs.matrix, members, ptr, [_node_rng(seed, keys[k]) for k in split],
            max_iters, None if weights is None else weights[members], centre)
        levels.append(SplitCounts(len(split), int(iterations.sum()),
                                  int((~converged).sum()), int((iterations == 0).sum())))
        # each node's plus half becomes its left child, its minus half its right
        members = members[order]
        ptr = np.append(np.column_stack((ptr[:-1], ptr[:-1] + (sizes + 1) // 2)).ravel(),
                        ptr[-1])
        keys = [2 * keys[k] + bit for k in split for bit in (0, 1)]
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
    return [make_tree(rs, d0=d0, split_kind=split_kind, seed=base_seed + t,
                      max_iters=max_iters) for t in range(m)]


def ensemble(
    rs: ReprSet,
    m: int,
    base_seed: int = 0,
    d0: int = 8,
    split_kind: str = "kmeans",
    max_iters: int = MAX_ITERS,
) -> list[FeaturePartition]:
    """The partitions of ensemble_trees(rs, m, ...)."""
    return [leaves(tree) for tree in ensemble_trees(rs, m, base_seed, d0, split_kind,
                                                     max_iters)]
