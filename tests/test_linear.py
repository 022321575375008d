import hashlib
import json

import numpy as np
import pytest

from featagg import kernels, linear
from featagg.agglomerate import agglomerate_dataset
from featagg.linear import (
    OvaConfig,
    OvaModel,
    decision_scores,
    load_model,
    predict,
    probability_scores,
    save_model,
    train_ova,
)
from featagg.dataio import load_xc
from featagg.tree import FeaturePartition
from featagg.xcmetrics import precision_at_k

from helpers import SPOILED_KINDS, dataset_from_dense, npz_arrays, spoil_npz, vec, write_npz


@pytest.fixture
def separable():
    # label 0 fires on feature 0, label 1 on feature 1
    feats = [[2.0, 0.0], [1.5, 0.0], [0.0, 2.0], [0.0, 1.0]] * 5
    labels = [{0}, {0}, {1}, {1}] * 5
    return dataset_from_dense(feats, labels, 2)


class TestTrain:
    def test_separable_reaches_perfect_training_accuracy(self, separable):
        model = train_ova(separable, OvaConfig(epochs=20))
        preds = predict(model, separable.features, k=1)
        assert precision_at_k(preds, separable.labels, 1) == 1.0

    def test_all_negative_label_scores_low(self, separable):
        feats = [[2.0, 0.0], [0.0, 2.0]] * 10
        labels = [{0}, {1}] * 10
        ds = dataset_from_dense(feats, labels, 3)  # label 2 never occurs
        model = train_ova(ds, OvaConfig(epochs=20))
        scores = decision_scores(model, ds.features)
        assert np.all(scores[:, 2] < 0)

    def test_deterministic_given_seed(self, separable):
        m1 = train_ova(separable, OvaConfig(epochs=5, seed=11))
        m2 = train_ova(separable, OvaConfig(epochs=5, seed=11))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_threads_accepts_only_one(self, separable):
        config = OvaConfig(epochs=5, seed=11)
        with pytest.raises(ValueError, match="threads must be 1, got 2"):
            train_ova(separable, config, threads=2)
        default = train_ova(separable, config)
        one = train_ova(separable, config, threads=1)
        assert one.weights.tobytes() == default.weights.tobytes()
        assert one.bias.tobytes() == default.bias.tobytes()

    def test_label_guard(self, rng):
        from featagg.sparse import SparseMatrix

        n = 3
        feats = dataset_from_dense(np.eye(3), [{0}] * 3, 1).features
        labels = SparseMatrix(
            n, 20_000, np.arange(n + 1), np.arange(n, dtype=np.int64),
            np.ones(n), validate=False,
        )
        from featagg.dataio import Dataset

        ds = Dataset(feats, labels)
        with pytest.raises(ValueError, match="guard"):
            train_ova(ds)

    def test_weight_guard(self, separable, monkeypatch):
        # 2 labels x 2 features = 4 weights; few labels, but too many weights
        monkeypatch.setattr(linear, "WEIGHT_GUARD", 3)
        with pytest.raises(ValueError, match="4 weights, over the desk-scale guard"):
            train_ova(separable)
        assert train_ova(separable, OvaConfig(allow_large=True)).weights.shape == (2, 2)
        monkeypatch.setattr(linear, "WEIGHT_GUARD", 4)
        assert train_ova(separable).weights.shape == (2, 2)


def seeded_dataset():
    """40 points, 12 features, 7 labels; row 0 is empty, label 6 never occurs."""
    rng = np.random.default_rng(2024)
    feats = rng.uniform(0.1, 2.0, size=(40, 12)) * (rng.random((40, 12)) < 0.35)
    feats[0] = 0.0
    labels = [set(rng.choice(6, size=rng.integers(1, 3), replace=False).tolist())
              for _ in range(40)]
    return dataset_from_dense(feats, labels, 7)


SEEDED_CONFIG = OvaConfig(epochs=3, lr=0.4, l2=1e-2, seed=5)
# sha256 of weights.tobytes() + bias.tobytes() for seeded_dataset() under
# SEEDED_CONFIG, computed with per-label calls of the loop reference kernel
SEEDED_SHA256 = "eda0ba6998771b580d3b399c281938e9ceea1cb44508a5c509b36bb91a2140a1"


def digest(model) -> str:
    return hashlib.sha256(model.weights.tobytes() + model.bias.tobytes()).hexdigest()


class TestLabelBlocks:
    def test_pinned_digest(self):
        assert digest(train_ova(seeded_dataset(), SEEDED_CONFIG)) == SEEDED_SHA256

    def test_block_size_does_not_change_result(self, monkeypatch):
        ds = seeded_dataset()
        whole = train_ova(ds, SEEDED_CONFIG)
        calls = []
        sgd = kernels.ova_sgd

        def counted(*args):
            calls.append(args[3].shape[0])
            return sgd(*args)

        # two labels per block: 7 labels train in 4 blocks
        block_steps = 2 * ds.n * SEEDED_CONFIG.epochs
        monkeypatch.setattr(linear, "_SGD_BLOCK_STEPS", block_steps)
        monkeypatch.setattr(kernels, "ova_sgd", counted)
        blocked = train_ova(ds, SEEDED_CONFIG)
        assert calls == [2, 2, 2, 1]
        assert blocked.weights.tobytes() == whole.weights.tobytes()
        assert blocked.bias.tobytes() == whole.bias.tobytes()


class TestConfigChecks:
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one(self, separable, epochs):
        with pytest.raises(ValueError, match="epochs"):
            train_ova(separable, OvaConfig(epochs=epochs))

    @pytest.mark.parametrize(
        "field, value",
        [("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("l2", -1e-4),
         ("lr_decay", -0.5)],
    )
    def test_out_of_range_rates(self, separable, field, value):
        with pytest.raises(ValueError, match=field):
            train_ova(separable, OvaConfig(**{field: value}))

    @pytest.mark.parametrize("lr, l2", [(2.0, 0.5), (4.0, 0.5)])
    def test_l2_factor_not_positive(self, separable, lr, l2):
        with pytest.raises(ValueError, match="lr \\* l2"):
            train_ova(separable, OvaConfig(lr=lr, l2=l2))

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int8(3)])
    def test_numpy_integer_seed_equals_python_int(self, separable, tmp_path, seed):
        config = OvaConfig(epochs=3, seed=seed)
        assert type(config.seed) is int and config == OvaConfig(epochs=3, seed=3)
        model = train_ova(separable, config)
        assert digest(model) == digest(train_ova(separable, OvaConfig(epochs=3, seed=3)))
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("seed", [True, False, 3.0, 2.5, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer.*{seed}"):
            OvaConfig(seed=seed)

    def test_train_cli_exits_2(self, separable, tmp_path, capsys):
        from featagg.cli import main
        from featagg.dataio import save_xc

        data = tmp_path / "train.txt"
        save_xc(separable, str(data))
        out = str(tmp_path / "model.json")
        assert main(["train", str(data), "-o", out, "--epochs", "0"]) == 2
        assert main(["train", str(data), "-o", out, "--lr", "-1"]) == 2
        assert main(["train", str(data), "-o", out, "--lr", "2", "--l2", "0.5"]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the SGD overflows
    def test_non_finite_weights_are_refused(self, tmp_path, capsys, monkeypatch):
        from featagg.cli import main

        big = "18446744073709551616"  # 2**64
        data = tmp_path / "big.txt"
        data.write_text(f"4 2 2\n0 0:{big} 1:{big}\n1 0:{big}\n0 1:{big}\n"
                        f"1 0:{big} 1:{big}\n")
        ds = load_xc(str(data))
        config = OvaConfig(lr=1e299, l2=0.0)
        with pytest.raises(ValueError, match="^training diverged: labels 0 to 1 have"):
            train_ova(ds, config)
        monkeypatch.setattr(linear, "_SGD_BLOCK_STEPS", 1)  # a block per label
        with pytest.raises(ValueError, match="^training diverged: labels 0 to 0 have"):
            train_ova(ds, config)
        out = tmp_path / "model.npz"
        assert main(["train", str(data), "-o", str(out), "--lr", "1e299", "--l2", "0"]) == 2
        assert not out.exists()
        assert "training diverged" in capsys.readouterr().err
        # a small enough step size trains finite weights on the same data
        assert np.isfinite(train_ova(ds, OvaConfig(lr=1e-30, l2=0.0)).weights).all()


class TestPredict:
    def test_zero_vector_ranks_by_bias(self, separable):
        model = train_ova(separable, OvaConfig(epochs=5))
        preds = predict(model, vec(2, {}), k=2)
        order = np.lexsort((np.arange(2), -model.bias))
        assert list(preds[0].labels) == list(order)

    def test_agglomerated_dimension_contract(self, separable):
        part = FeaturePartition.from_clusters(2, [np.array([0]), np.array([1])])
        agg = agglomerate_dataset(separable, part)
        model = train_ova(agg, OvaConfig(epochs=10))
        assert model.dim == 1 if part.n_clusters == 1 else 2
        preds = predict(model, agg.features, k=1)
        assert precision_at_k(preds, agg.labels, 1) == 1.0
        with pytest.raises(ValueError):
            predict(model, vec(5, {}), k=1)

    def test_probability_scores_are_the_clipped_sigmoid(self, rng):
        # empty rows score the bias: margins of exactly +-500, +-0.0, past
        # the clip and inside it, then rows of random entries
        bias = np.array([500.0, -500.0, 0.0, -0.0, 1e3, -1e3, 500.5, -36.0, 35.5, 1e-300])
        model = OvaModel(np.asfortranarray(rng.normal(size=(10, 6)) * 100.0), bias,
                         OvaConfig())
        x = dataset_from_dense(np.vstack((np.zeros((2, 6)), rng.random((5, 6)) * 3.0)),
                               [set()] * 7, 10).features
        margins = decision_scores(model, x)
        want = 1.0 / (1.0 + np.exp(-np.clip(margins, -500.0, 500.0)))
        assert probability_scores(model, x).tobytes() == want.tobytes()
        one = probability_scores(model, vec(6, {}))
        assert one.shape == (1, 10) and one.tobytes() == want[0].tobytes()

    def test_k_exceeding_labels_errors(self, separable):
        model = train_ova(separable, OvaConfig(epochs=2))
        with pytest.raises(ValueError):
            predict(model, separable.features, k=3)


def test_model_round_trip(tmp_path, separable):
    model = train_ova(separable, OvaConfig(epochs=3, seed=4))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    # an .npz archive at exactly the given path, whatever its extension
    assert path.read_bytes()[:4] == b"PK\x03\x04"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    again = load_model(str(path))
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.bias, model.bias)
    assert again.config == model.config


def test_weights_are_column_major_and_c_ordered_files_load(tmp_path, rng):
    """Models hold their weights column-major: train_ova allocates them so,
    the archive keeps the order, and a file with row-major weights (as every
    earlier version wrote) loads column-major with equal predictions."""
    feats = rng.random((30, 9)) * (rng.random((30, 9)) > 0.4)
    ds = dataset_from_dense(feats, [{i % 4, (i // 4) % 4} for i in range(30)], 4)
    model = train_ova(ds, OvaConfig(epochs=2, seed=3))
    assert model.weights.flags.f_contiguous and not model.weights.flags.c_contiguous
    path, c_path = tmp_path / "model.npz", tmp_path / "model_c.npz"
    save_model(model, str(path))
    arrays = npz_arrays(path)
    assert arrays["weights"].flags.f_contiguous
    arrays["weights"] = np.ascontiguousarray(arrays["weights"])
    write_npz(c_path, arrays)
    assert npz_arrays(c_path)["weights"].flags.c_contiguous
    again = load_model(str(c_path))
    assert again.weights.flags.f_contiguous and again == model
    want = predict(model, ds.features, k=3)
    got = predict(again, ds.features, k=3)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("bias", [0.5]),  # one bias for two labels would broadcast
        ("bias", [[0.1, 0.2]]),
        ("weights", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),  # 3 columns, dim 2
        ("weights", [1.0, 2.0]),  # not 2-D
        ("dim", 3),
        ("config", {"epochs": 1, "momentum": 0.9}),
        ("config", {"seed": True}),
        ("config", [1]),
    ],
)
def test_load_model_rejects_inconsistent_shapes(tmp_path, separable, field, value):
    model = train_ova(separable, OvaConfig(epochs=1))
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    arrays = npz_arrays(path)
    arrays[field] = np.array(json.dumps(value) if field == "config" else value)
    write_npz(path, arrays)
    with pytest.raises(ValueError, match="model (weights|bias|config)"):
        load_model(str(path))


def test_load_model_rejects_non_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1]")
    with pytest.raises(ValueError, match="not an .npz archive"):
        load_model(str(path))


@pytest.mark.parametrize("kind", SPOILED_KINDS)
def test_load_model_rejects_unreadable_file(tmp_path, separable, kind):
    path = tmp_path / "model.npz"
    save_model(train_ova(separable, OvaConfig(epochs=1)), str(path))
    spoil_npz(path, kind)
    with pytest.raises(ValueError, match="^model file is not"):
        load_model(str(path))


@pytest.mark.parametrize("loss", ["hinge", None, ["logistic"]])
def test_load_model_reads_configs_that_name_the_loss(tmp_path, separable, loss):
    """Model files of earlier versions name the one loss, "logistic", in
    their config: it is dropped, and any other loss is a ValueError."""
    model = train_ova(separable, OvaConfig(epochs=1, seed=2))
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    arrays = npz_arrays(path)
    config = json.loads(str(arrays["config"]))
    assert "loss" not in config
    for value, name in (("logistic", "old.npz"), (loss, "bad.npz")):
        arrays["config"] = np.array(json.dumps({"loss": value, **config}))
        write_npz(tmp_path / name, arrays)
    assert load_model(str(tmp_path / "old.npz")) == model
    with pytest.raises(ValueError, match="^model config: unsupported loss "):
        load_model(str(tmp_path / "bad.npz"))


def test_load_model_rejects_a_model_file_of_earlier_versions(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"config": {}, "dim": 2, "bias": [0.0], "weights": [[1.0, 2.0]]}
    ))
    with pytest.raises(ValueError, match="JSON model files of earlier versions"):
        load_model(str(path))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("weights", None, "model file lacks weights"),
        ("dim", None, "model file lacks dim"),
        ("weights", np.ones((2, 2), dtype=np.int64), "model weights must be a 2-D fl"),
        ("dim", np.array(2.0), "model dim must be a 0-D integer"),
        ("config", np.array(1.0), "model config must be a 0-D text"),
        ("config", np.array("{"), "model config: "),
    ],
)
def test_load_model_rejects_bad_arrays(tmp_path, separable, field, value, message):
    path = tmp_path / "model.npz"
    save_model(train_ova(separable, OvaConfig(epochs=1)), str(path))
    arrays = npz_arrays(path)
    if value is None:
        del arrays[field]
    else:
        arrays[field] = value
    write_npz(path, arrays)
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def test_load_model_accepts_empty_label_set(tmp_path):
    path = tmp_path / "empty.npz"
    save_model(OvaModel(np.zeros((0, 4)), np.zeros(0), OvaConfig()), str(path))
    model = load_model(str(path))
    assert model.weights.shape == (0, 4) and model.bias.shape == (0,)
