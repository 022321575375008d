"""Numerical verification of the agglomeration distortion bounds.

Three checks, all dense and exact at verification scale: the per-cluster
quadratic-form bound with its closed-form witness constant, the linear-model
loss-preservation bound built by concatenating those witnesses, and the
label-aggregate analogue for split scores. Each check reports both sides and
whether lhs <= rhs within relative slack 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agglomerate import SUM, agglomerate_matrix
from .dataio import Dataset
from .sparse import SparseMatrix, _value_eq
from .tree import FeaturePartition

REL_SLACK = 1e-9
ABS_SLACK = 1e-12

# dense arithmetic guards; the checks are meant for small exact instances
MAX_DENSE_DIM = 4096
MAX_DENSE_POINTS = 16384

LOSSES = ("logistic", "hinge", "abs")

# largest shapes the trial suites draw: lemma1's d x p witness matrices, and
# thm1's and thm2's n-point datasets of dimension d
LEMMA1_MAX_D = 128
LEMMA1_MAX_P = 64
THM_MAX_N = 64
THM_MAX_D = 64


def _bound_holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + REL_SLACK) + ABS_SLACK


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool
    witnesses: np.ndarray
    per_cluster: list[dict] = field(default_factory=list, compare=False)
    __eq__ = _value_eq


def _witness(V: np.ndarray, u: np.ndarray) -> float:
    """Minimizer of (u - c 1)^T V V^T (u - c 1); 0 when the denominator is 0."""
    vt1 = V.sum(axis=0)
    denom = float(np.dot(vt1, vt1))
    if denom == 0.0:
        return 0.0
    return float(np.dot(V.T @ u, vt1)) / denom


def _perp(u: np.ndarray) -> np.ndarray:
    """Component of u orthogonal to the all-ones vector."""
    return u - u.mean()


def lemma1_check(
    Z: np.ndarray, part: FeaturePartition, w: np.ndarray
) -> BoundReport:
    """Per-cluster quadratic bound with the closed-form witness constant."""
    Z = np.asarray(Z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] != part.d or w.shape[0] != part.d:
        raise ValueError("Z must be d x p and w length d for the partition's d")
    witnesses = np.empty(part.n_clusters, dtype=np.float64)
    per_cluster = []
    lhs_total = rhs_total = 0.0
    for k, cluster in enumerate(part.clusters):
        V = Z[cluster]
        u = w[cluster]
        c = _witness(V, u)
        diff_vec = V.T @ (u - c)
        lhs = float(np.dot(diff_vec, diff_vec))
        delta = V - V.mean(axis=0)
        resid = delta.T @ _perp(u)
        rhs = float(np.dot(resid, resid))
        witnesses[k] = c
        per_cluster.append({"lhs": lhs, "rhs": rhs, "holds": _bound_holds(lhs, rhs)})
        lhs_total += lhs
        rhs_total += rhs
    return BoundReport(
        lhs=lhs_total,
        rhs=rhs_total,
        holds=all(pc["holds"] for pc in per_cluster),
        witnesses=witnesses,
        per_cluster=per_cluster,
    )


def _loss_fn(name: str):
    if name == "logistic":
        return lambda t: np.log1p(np.exp(-np.abs(t))) + np.maximum(-t, 0.0)
    if name == "hinge":
        return lambda t: np.maximum(0.0, 1.0 - t)
    if name == "abs":
        return np.abs
    raise ValueError(f"loss must be one of {LOSSES}")


def _dense_features(ds: Dataset) -> np.ndarray:
    if ds.d > MAX_DENSE_DIM or ds.n > MAX_DENSE_POINTS:
        raise ValueError("dataset too large for dense verification")
    return ds.features.to_dense()


def _witnesses_and_rhs(profiles: np.ndarray, u: np.ndarray,
                       part: FeaturePartition) -> tuple[np.ndarray, float]:
    """Each cluster's witness constant for the rows of profiles and the
    coefficients u, and the bound: the sum over clusters of the Frobenius
    distance of the rows to their mean times |perp(u)|."""
    witnesses = np.empty(part.n_clusters, dtype=np.float64)
    rhs = 0.0
    for k, cluster in enumerate(part.clusters):
        V, uk = profiles[cluster], u[cluster]
        witnesses[k] = _witness(V, uk)
        rhs += float(np.linalg.norm(V - V.mean(axis=0))) * float(np.linalg.norm(_perp(uk)))
    return witnesses, rhs


def thm1_check(
    ds: Dataset, part: FeaturePartition, w: np.ndarray, loss: str = "logistic"
) -> BoundReport:
    """Loss preservation: a model on agglomerated features built from the
    witness constants tracks any model on the original features."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != ds.d or part.d != ds.d:
        raise ValueError("w and partition must match the dataset's feature dim")
    X = _dense_features(ds)  # n x d
    P = X.T  # value profiles with every point retained
    fn = _loss_fn(loss)
    witnesses, rhs = _witnesses_and_rhs(P, w, part)
    x_agg = agglomerate_matrix(ds.features, part, SUM).to_dense()
    diffs = fn(X @ w) - fn(x_agg @ witnesses)
    lhs = float(np.sqrt(np.sum(diffs * diffs)))
    return BoundReport(lhs=lhs, rhs=rhs, holds=_bound_holds(lhs, rhs),
                       witnesses=witnesses)


def thm2_check(
    ds: Dataset,
    part: FeaturePartition,
    c_plus: np.ndarray,
    c_minus: np.ndarray,
) -> BoundReport:
    """Split-score preservation for label aggregates under agglomeration."""
    c_plus = np.asarray(c_plus, dtype=np.float64)
    c_minus = np.asarray(c_minus, dtype=np.float64)
    if c_plus.shape[0] != ds.d or c_minus.shape[0] != ds.d or part.d != ds.d:
        raise ValueError("centroids and partition must match the feature dim")
    X = _dense_features(ds)
    Y = ds.labels.to_dense()  # n x L
    Q = X.T @ Y  # label aggregates per feature, every point and label retained
    delta = c_plus - c_minus
    witnesses, rhs = _witnesses_and_rhs(Q, delta, part)
    Z = Y.T @ X  # one row per label
    z_agg = np.empty((Z.shape[0], part.n_clusters), dtype=np.float64)
    for k, cluster in enumerate(part.clusters):
        z_agg[:, k] = Z[:, cluster].sum(axis=1)
    diffs = Z @ delta - z_agg @ witnesses
    lhs = float(np.sqrt(np.sum(diffs * diffs)))
    return BoundReport(lhs=lhs, rhs=rhs, holds=_bound_holds(lhs, rhs),
                       witnesses=witnesses)


# ---------------------------------------------------------------------------
# randomized trial suites
# ---------------------------------------------------------------------------


def random_partition(rng: np.random.Generator, d: int) -> FeaturePartition:
    """Uniformly scrambled partition with a random number of nonempty parts."""
    k = int(rng.integers(1, d + 1))
    perm = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False)) if k > 1 else []
    clusters = [np.sort(chunk) for chunk in np.split(perm, cuts)]
    return FeaturePartition.from_clusters(d, clusters)


def _random_sparse_dataset(
    rng: np.random.Generator, n: int, d: int, n_labels: int, density: float
) -> Dataset:
    idx, vals, labs = [], [], []
    for _ in range(n):
        nnz = max(1, rng.binomial(d, density))
        idx.append(np.sort(rng.choice(d, size=nnz, replace=False)))
        vals.append(rng.uniform(0.1, 2.0, size=nnz))
        n_pos = int(rng.integers(0, min(4, n_labels) + 1))
        labs.append(np.sort(rng.choice(n_labels, size=n_pos, replace=False)))
    return Dataset(SparseMatrix.from_rows(d, idx, vals),
                   SparseMatrix.from_rows(n_labels, labs, [np.ones(len(l)) for l in labs]))


def _run_trials(theorem: str, trials: int, seed: int, draw) -> dict:
    """Summary of trials checks from one seeded rng: draw(rng) makes one
    trial's draws in order and returns its (lhs, rhs, holds) checks."""
    # with no trials nothing is checked, and the worst excess stays -inf
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        for lhs, rhs, holds in draw(rng):
            worst = max(worst, (lhs - rhs) / max(rhs, 1.0))
            failures += not holds
    return {"theorem": theorem, "trials": trials, "failures": int(failures),
            "all_hold": failures == 0, "worst_rel_excess": float(worst)}


def lemma1_trials(trials: int, seed: int = 0) -> dict:
    def draw(rng):
        d = int(rng.integers(2, LEMMA1_MAX_D + 1))
        p = int(rng.integers(1, LEMMA1_MAX_P + 1))
        Z = rng.normal(size=(d, p))
        w = rng.normal(size=d)
        report = lemma1_check(Z, random_partition(rng, d), w)
        return [(pc["lhs"], pc["rhs"], pc["holds"]) for pc in report.per_cluster]

    return _run_trials("lemma1", trials, seed, draw)


def thm1_trials(trials: int, seed: int = 0) -> dict:
    def draw(rng):
        n = int(rng.integers(4, THM_MAX_N + 1))
        d = int(rng.integers(4, THM_MAX_D + 1))
        ds = _random_sparse_dataset(rng, n, d, n_labels=4, density=0.3)
        part = random_partition(rng, d)
        report = thm1_check(ds, part, rng.normal(size=d))
        return [(report.lhs, report.rhs, report.holds)]

    return _run_trials("thm1", trials, seed, draw)


def thm2_trials(trials: int, seed: int = 0) -> dict:
    def draw(rng):
        n = int(rng.integers(4, THM_MAX_N + 1))
        d = int(rng.integers(4, THM_MAX_D + 1))
        ds = _random_sparse_dataset(rng, n, d, n_labels=6, density=0.3)
        part = random_partition(rng, d)
        c_plus = rng.normal(size=d)
        report = thm2_check(ds, part, c_plus, rng.normal(size=d))
        return [(report.lhs, report.rhs, report.holds)]

    return _run_trials("thm2", trials, seed, draw)
