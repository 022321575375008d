"""Minimal one-vs-rest logistic baseline for end-to-end experiments.

One binary logistic model per label, trained by seeded per-sample SGD with L2
regularization. Deliberately desk-scale: guards refuse huge label spaces and
weight matrices unless overridden. Scores are linear in the input, so models
trained on agglomerated features are directly comparable to models on the
original ones.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import kernels
from .dataio import Dataset, json_object, json_text, load_arrays, save_arrays
from .sparse import SparseMatrix, _value_eq
from .tree import _int_seed
from .xcmetrics import Predictions, top_k

LABEL_GUARD = 10_000
# Weight entries (labels x features) the model may hold without allow_large:
# 2**27 float64 weights are 1 GiB.
WEIGHT_GUARD = 1 << 27


@dataclass(frozen=True)
class OvaConfig:
    epochs: int = 10
    lr: float = 0.5
    lr_decay: float = 1.0  # per-epoch inverse decay; 0 keeps lr constant
    l2: float = 1e-4
    seed: int = 0  # any integer but a bool, kept as a Python int
    allow_large: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seed", _int_seed(self.seed))


@dataclass(frozen=True)
class OvaModel:
    weights: np.ndarray  # (n_labels, dim), column-major (see kernels.score_rows)
    bias: np.ndarray  # (n_labels,)
    config: OvaConfig
    __eq__ = _value_eq

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])

    @property
    def n_labels(self) -> int:
        return int(self.weights.shape[0])


# Sample-order entries (labels x epochs x samples) per block of labels that
# one ova_sgd call trains, at least one label per block: the order and sign
# scratch stays bounded however many labels there are. (ova_sgd gathers the
# steps' entries a chunk at a time, so its own scratch is bounded too.)
_SGD_BLOCK_STEPS = 1 << 20


def _check_config(config: OvaConfig) -> None:
    if config.epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {config.epochs}")
    if not config.lr > 0.0:
        raise ValueError(f"lr must be positive, got {config.lr}")
    if not config.l2 >= 0.0:
        raise ValueError(f"l2 must be non-negative, got {config.l2}")
    if not config.lr_decay >= 0.0:
        raise ValueError(f"lr_decay must be non-negative, got {config.lr_decay}")
    # the per-step L2 factor 1 - lr_e * l2 must stay positive (lr_e <= lr)
    if not config.lr * config.l2 < 1.0:
        raise ValueError(
            f"lr * l2 must be below 1, got {config.lr} * {config.l2}"
        )


def train_ova(
    ds: Dataset, config: OvaConfig = OvaConfig(), threads: int = 1
) -> OvaModel:
    """Train one binary model per label; bit-identical given the seed.

    Label l's sample order in each epoch is the next permutation(n) of
    default_rng(SeedSequence([seed % 2**63, l])); kernels.sample_orders seeds
    a block's streams in one pass and draws them bit for bit as numpy does.
    Labels are trained in blocks, one batched ova_sgd call per block that
    updates all its labels at every step, and each label follows the same
    arithmetic whatever block it lands in and however ova_sgd chunks its
    steps, so the result depends on neither the block size nor the step
    chunks. The seed is any integer but a bool (see OvaConfig). A block whose
    trained weights or biases are not finite (a step size too large for the
    data) is a ValueError, so no model of NaN or infinite weights is returned.

    threads accepts only 1 and raises ValueError otherwise; it is kept for
    the benchmark's train_ova(..., threads=1) call, and ROADMAP item 1b
    deletes it together with the threads=1 in perfbench/workloads.py.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    _check_config(config)
    n_labels = ds.n_labels
    feats = ds.features
    n, dim = feats.rows, feats.cols
    if n_labels > LABEL_GUARD and not config.allow_large:
        raise ValueError(
            f"{n_labels} labels exceeds the desk-scale guard of {LABEL_GUARD}; "
            "set allow_large to override"
        )
    if n_labels * dim > WEIGHT_GUARD and not config.allow_large:
        raise ValueError(
            f"{n_labels} labels x {dim} features is {n_labels * dim} weights, "
            f"over the desk-scale guard of {WEIGHT_GUARD}; set allow_large to "
            "override"
        )
    yt = ds.labels.transpose()
    weights = np.zeros((n_labels, dim), dtype=np.float64, order="F")
    bias = np.zeros(n_labels, dtype=np.float64)
    block = max(1, _SGD_BLOCK_STEPS // max(1, n * config.epochs))
    for lo in range(0, n_labels, block):
        hi = min(lo + block, n_labels)
        sign = np.full((hi - lo, n), -1.0, dtype=np.float64)
        s, e = yt.indptr[lo], yt.indptr[hi]
        sign[np.repeat(np.arange(hi - lo), np.diff(yt.indptr[lo:hi + 1])),
             yt.indices[s:e]] = 1.0
        order = kernels.sample_orders(config.seed, np.arange(lo, hi), n, config.epochs)
        # w and b stay bound until the next block or the return: unpacking
        # the call straight into the slices frees w at once, and that made
        # the later stages of the rerank benchmark about 5% slower
        w, b = kernels.ova_sgd(
            feats.indptr, feats.indices, feats.values,
            sign, order.reshape(-1), dim, config.lr, config.l2, config.lr_decay, n,
        )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"training diverged: labels {lo} to {hi - 1} have "
                             "non-finite weights; lower lr or raise l2")
        weights[lo:hi] = w
        bias[lo:hi] = b
    return OvaModel(weights=weights, bias=bias, config=config)


def decision_scores(model: OvaModel, x: SparseMatrix) -> np.ndarray:
    """Raw margins w.x + b, shape (n, n_labels)."""
    if x.cols != model.dim:
        raise ValueError(f"matrix cols {x.cols} != model dim {model.dim}")
    return kernels.score_rows(x.indptr, x.indices, x.values, model.weights, model.bias)


def probability_scores(model: OvaModel, x: SparseMatrix) -> np.ndarray:
    """Sigmoid of the margins: positive scores usable under a log transform."""
    scores = decision_scores(model, x)
    np.clip(scores, -500.0, 500.0, out=scores)
    np.negative(scores, out=scores)
    np.exp(scores, out=scores)
    scores += 1.0
    return np.divide(1.0, scores, out=scores)


def predict(model: OvaModel, x: SparseMatrix, k: int) -> Predictions:
    """Top-k labels per point by probability_scores, ties by ascending label id.

    Scores are computed and ranked a chunk of rows at a time, so the dense
    points x labels score matrix is never held whole.
    """
    if x.cols != model.dim:
        raise ValueError(f"matrix cols {x.cols} != model dim {model.dim}")
    return top_k(lambda lo, hi: probability_scores(model, x.slice_rows(lo, hi)),
                 x.rows, model.n_labels, k)


_MODEL_ARRAYS = {"config": ("U", 0), "dim": ("iu", 0), "weights": ("f", 2),
                 "bias": ("f", 1)}


def save_model(model: OvaModel, path: str) -> None:
    """Write the model as an .npz archive at path, whatever its extension."""
    save_arrays(path, {
        "config": json_text(asdict(model.config)),
        "dim": np.array(model.dim, dtype=np.int64),
        "weights": model.weights,
        "bias": model.bias,
    }, "model")


def load_model(path: str) -> OvaModel:
    """Read a model saved by save_model; a malformed file is a ValueError.
    Weights saved row-major, as files of earlier versions hold them, are
    made column-major once here. Their configs name the loss, "logistic",
    the only one there is: it is dropped, and any other is a ValueError."""
    arrays = load_arrays(path, "model", _MODEL_ARRAYS)
    config = json_object(arrays["config"], "model config")
    if (loss := config.pop("loss", "logistic")) != "logistic":
        raise ValueError(f"model config: unsupported loss {loss!r}")
    try:
        config = OvaConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model config: {exc}") from None
    dim = int(arrays["dim"])
    weights, bias = arrays["weights"], arrays["bias"]
    if weights.shape[1] != dim:
        raise ValueError(
            f"model weights have shape {weights.shape}, expected (labels, {dim})"
        )
    if bias.shape != (weights.shape[0],):
        raise ValueError(
            f"model bias has shape {bias.shape}, expected ({weights.shape[0]},)"
        )
    return OvaModel(weights=np.asfortranarray(weights), bias=bias, config=config)
