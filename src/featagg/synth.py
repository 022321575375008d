"""Synthetic dataset generators for benchmarks and end-to-end experiments."""

from __future__ import annotations

import numpy as np

from .dataio import Dataset
from .sparse import SparseMatrix


def split_points(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """First n_train rows as train, the rest as test."""
    if not 0 < n_train < ds.n:
        raise ValueError("n_train must leave at least one point on each side")
    train_rows = np.arange(n_train)
    test_rows = np.arange(n_train, ds.n)
    return (
        Dataset(ds.features.take_rows(train_rows), ds.labels.take_rows(train_rows)),
        Dataset(ds.features.take_rows(test_rows), ds.labels.take_rows(test_rows)),
    )


def random_dataset(
    rng: np.random.Generator,
    n: int,
    d: int,
    n_labels: int = 2,
    nnz_per_row: int = 16,
    labels_per_row: int = 1,
) -> Dataset:
    """Uniform sparse dataset with a fixed per-row nonzero count."""
    nnz_per_row = min(nnz_per_row, d)
    labels_per_row = min(labels_per_row, n_labels)
    idx, vals, labs = [], [], []
    for _ in range(n):
        idx.append(np.sort(rng.choice(d, size=nnz_per_row, replace=False)))
        vals.append(rng.uniform(0.1, 2.0, size=nnz_per_row))
        labs.append(np.sort(rng.choice(n_labels, size=labels_per_row, replace=False)))
    return Dataset(SparseMatrix.from_rows(d, idx, vals),
                   SparseMatrix.from_rows(n_labels, labs, [np.ones(len(l)) for l in labs]))


def duplicated_group_dataset(
    rng: np.random.Generator,
    n: int,
    groups: int = 64,
    copies: int = 8,
    n_labels: int = 32,
    active_groups: int = 4,
    labels_per_point: int = 2,
) -> tuple[Dataset, np.ndarray]:
    """Dataset whose features come in contiguous groups of exact duplicates.

    Each point activates a few latent groups; every copy within an active
    group carries the same value, so group members have identical value
    profiles. Labels come from a random linear teacher on the latent values
    (top labels_per_point scores per point). Returns the dataset and the
    ground-truth group id per feature.
    """
    d = groups * copies
    teacher = rng.normal(size=(n_labels, groups))
    idx, vals, labs = [], [], []
    for _ in range(n):
        act = np.sort(rng.choice(groups, size=active_groups, replace=False))
        val = rng.uniform(0.5, 2.0, size=active_groups)
        idx.append((act[:, None] * copies + np.arange(copies)[None, :]).ravel())
        vals.append(np.repeat(val, copies))
        latent = np.zeros(groups)
        latent[act] = val
        scores = teacher @ latent
        labs.append(np.sort(np.argsort(-scores)[:labels_per_point]))
    ds = Dataset(SparseMatrix.from_rows(d, idx, vals),
                 SparseMatrix.from_rows(n_labels, labs, [np.ones(len(l)) for l in labs]))
    truth = np.repeat(np.arange(groups), copies)
    return ds, truth


def powerlaw_dataset(
    rng: np.random.Generator,
    n: int,
    d: int = 256,
    n_labels: int = 500,
    bundle_size: int = 3,
    zipf_exponent: float = 1.1,
    noise_features: int = 2,
) -> Dataset:
    """Zipf-frequency labels, each with a characteristic feature bundle.

    Points draw one to three labels by Zipf rank and activate the union of
    their bundles plus a little feature noise; rare labels stay rare but keep
    a recognizable footprint.
    """
    ranks = np.arange(1, n_labels + 1, dtype=np.float64)
    probs = ranks**-zipf_exponent
    probs /= probs.sum()
    bundles = [
        np.sort(rng.choice(d, size=bundle_size, replace=False))
        for _ in range(n_labels)
    ]
    idx, vals, labs = [], [], []
    for _ in range(n):
        n_lab = int(rng.integers(1, 4))
        lab = np.sort(rng.choice(n_labels, size=n_lab, replace=False, p=probs))
        active: dict[int, float] = {}
        for l in lab:
            for j in bundles[l]:
                active[int(j)] = active.get(int(j), 0.0) + float(rng.uniform(1.0, 2.0))
        for j in rng.choice(d, size=noise_features, replace=False):
            active[int(j)] = active.get(int(j), 0.0) + float(rng.uniform(0.1, 0.5))
        row = sorted(active)
        idx.append(np.array(row, dtype=np.int64))
        vals.append(np.array([active[j] for j in row]))
        labs.append(lab)
    return Dataset(SparseMatrix.from_rows(d, idx, vals),
                   SparseMatrix.from_rows(n_labels, labs, [np.ones(len(l)) for l in labs]))
