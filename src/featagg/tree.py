"""Recursive balanced hierarchy over features and partition extraction.

Nodes with more than d0 features are split evenly and recursed; smaller nodes
become leaves. Each node draws its RNG from (seed, root-to-node bit path), so
the resulting tree is independent of build order and safe to parallelize.
When d > d0 every leaf ends up with between floor((d0+1)/2) and d0 features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .reprs import ReprSet
from .splits import MAX_ITERS, SplitResult, kmeans_split, ndcg_split

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
class ClusterTree:
    root: TreeNode
    d: int
    d0: int
    split_kind: str
    seed: int


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
        clusters = [np.sort(np.asarray(c, dtype=np.int64)) for c in clusters]
        cluster_of = np.full(d, -1, dtype=np.int64)
        total = 0
        for k, c in enumerate(clusters):
            if c.shape[0] == 0:
                raise InvariantError(f"cluster {k} is empty")
            if c.min() < 0 or c.max() >= d:
                raise InvariantError(f"cluster {k} has out-of-range features")
            if np.any(cluster_of[c] != -1):
                raise InvariantError("clusters overlap")
            cluster_of[c] = k
            total += c.shape[0]
        if total != d:
            raise InvariantError(f"clusters cover {total} of {d} features")
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
        d, clusters = check_partition_payload(payload, "partition")
        return cls.from_clusters(
            d, clusters, d0=payload.get("d0"), seed=payload.get("seed")
        )

    def to_flat_text(self) -> str:
        lines = [f"{j} {k}" for j, k in enumerate(self.cluster_of)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_flat_text(cls, text: str) -> "FeaturePartition":
        pairs = [line.split() for line in text.splitlines() if line.strip()]
        d = len(pairs)
        cluster_of = np.full(d, -1, dtype=np.int64)
        for f, k in pairs:
            j = int(f)
            if not 0 <= j < d:
                raise InvariantError(f"feature id {j} out of range")
            cluster_of[j] = int(k)
        ids = np.unique(cluster_of)
        if ids.size and (ids.min() < 0 or ids.max() != ids.size - 1):
            raise InvariantError("cluster ids must be contiguous from 0")
        clusters = [np.flatnonzero(cluster_of == k) for k in ids]
        return cls.from_clusters(d, clusters)


def check_partition_payload(payload, what: str) -> tuple[int, list[np.ndarray]]:
    """d and the clusters of a parsed partition payload, or a ValueError.

    payload is the JSON object written by to_json; what names the file kind
    in messages. A declared K that differs from the cluster count is an
    InvariantError.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    missing = [k for k in ("d", "K", "clusters") if k not in payload]
    if missing:
        raise ValueError(f"{what} file lacks {', '.join(missing)}")
    for key in ("d", "K"):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(
                f"{what} {key} must be a non-negative integer, got {value!r}"
            )
    items = payload["clusters"]
    if not isinstance(items, list):
        raise ValueError(f"{what} clusters must be a list")
    clusters = []
    for k, item in enumerate(items):
        if not isinstance(item, list) or any(isinstance(v, list) for v in item):
            raise ValueError(f"{what} cluster {k} must be 1-D: a list of feature ids")
        for v in item:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{what} cluster {k} is not numeric: {v!r}")
            if not isinstance(v, int):
                raise ValueError(f"{what} cluster {k} holds non-integer feature ids: {v!r}")
        try:
            clusters.append(np.array(item, dtype=np.int64))
        except OverflowError:
            raise ValueError(f"{what} cluster {k} holds a feature id out of range") from None
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
    """Grow the balanced hierarchy over all of rs's features."""
    d = rs.n_features
    if d < 1:
        raise ValueError("need at least one feature")
    if d0 < 1:
        raise ValueError("leaf size must be at least 1")
    if split_kind not in SPLIT_KINDS:
        raise ValueError(f"split_kind must be one of {SPLIT_KINDS}")
    split = kmeans_split if split_kind == "kmeans" else ndcg_split

    def build(members: np.ndarray, node_key: int) -> TreeNode:
        if members.shape[0] <= d0:
            return TreeNode(features=np.sort(members))
        result: SplitResult = split(members, rs, _node_rng(seed, node_key), max_iters)
        # bit path: left child appends 0, right child appends 1
        return TreeNode(
            left=build(result.s_plus, node_key * 2),
            right=build(result.s_minus, node_key * 2 + 1),
        )

    root = build(np.arange(d, dtype=np.int64), 1)
    return ClusterTree(root=root, d=d, d0=d0, split_kind=split_kind, seed=seed)


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


def ensemble(
    rs: ReprSet,
    m: int,
    base_seed: int = 0,
    d0: int = 8,
    split_kind: str = "kmeans",
    max_iters: int = MAX_ITERS,
) -> list[FeaturePartition]:
    """m independent partitions from seeds base_seed .. base_seed + m - 1."""
    if m < 1:
        raise ValueError("ensemble size must be at least 1")
    return [
        leaves(make_tree(rs, d0=d0, split_kind=split_kind, seed=base_seed + t,
                         max_iters=max_iters))
        for t in range(m)
    ]
