import json
from dataclasses import asdict

import numpy as np
import pytest

from featagg.cli import main
from featagg.cooc import PseudoCooc, save_cooc
from featagg.dataio import load_xc, save_xc
from featagg.synth import duplicated_group_dataset, split_points
from featagg.reprs import build as build_reprs
from featagg.tree import (
    FeaturePartition,
    SplitCounts,
    load_partition,
    make_tree,
    save_partition,
)
from featagg.xcmetrics import Predictions, load_predictions, save_predictions

from helpers import SPOILED_KINDS, npz_arrays, spoil_npz, write_npz


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(42)
    ds, _ = duplicated_group_dataset(rng, n=220, groups=8, copies=4, n_labels=6)
    train, test = split_points(ds, 180)
    save_xc(train, str(path / "train.txt"))
    save_xc(test, str(path / "test.txt"))
    return path


def run(capsys, *argv) -> tuple[int, dict]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr().out
    return code, (json.loads(captured) if captured.strip() else {})


def test_stats(workdir, capsys):
    code, out = run(capsys, "stats", workdir / "train.txt")
    assert code == 0
    assert out == {"n": 180, "d": 32, "L": 6,
                   "avg_features": 16.0, "avg_labels": 2.0}


def test_cluster_produces_valid_partition(workdir, capsys):
    code, out = run(
        capsys, "cluster", workdir / "train.txt", "-o", workdir / "part.npz",
        "--mode", "x", "--leaf-size", "4", "--seed", "1", "--doc-fraction", "1.0",
    )
    assert code == 0
    part = load_partition(str(workdir / "part.npz"))
    assert np.array_equal(np.sort(np.concatenate(part.clusters)), np.arange(32))
    assert out["K"] == part.n_clusters
    assert out["clustering_seconds"] > 0.0


def test_cluster_reproducible_byte_identical(workdir, capsys):
    for name in ("a.npz", "b.npz"):
        run(capsys, "cluster", workdir / "train.txt", "-o", workdir / name,
            "--seed", "7", "--doc-fraction", "1.0")
    assert (workdir / "a.npz").read_bytes() == (workdir / "b.npz").read_bytes()


def test_cluster_ensemble_files(workdir, capsys):
    # .r<t> goes before the file name's extension, never a directory's dot
    for output, m, names in (("ens.npz", 3, "ens.r{t}.npz"),
                             ("runs.v1/part", 2, "runs.v1/part.r{t}"),
                             ("out/.part", 2, "out/.part.r{t}")):
        (workdir / output).parent.mkdir(exist_ok=True)
        code, out = run(
            capsys, "cluster", workdir / "train.txt", "-o", workdir / output,
            "--ensemble", m, "--doc-fraction", "1.0",
        )
        assert code == 0
        assert out["files"] == [str(workdir / names.format(t=t)) for t in range(m)]
        for f in out["files"]:
            load_partition(f)


@pytest.mark.parametrize("split", ["kmeans", "ndcg"])
def test_cluster_reports_split_counts(workdir, capsys, split):
    code, out = run(
        capsys, "cluster", workdir / "train.txt", "-o", workdir / f"counts_{split}.npz",
        "--split", split, "--leaf-size", "4", "--ensemble", "2", "--doc-fraction", "1.0",
    )
    assert code == 0
    rs = build_reprs(load_xc(str(workdir / "train.txt")), mode="x", doc_fraction=1.0)
    want = sum((make_tree(rs, d0=4, split_kind=split, seed=t).split_counts()
                for t in range(2)), SplitCounts())
    assert out["splits"] == asdict(want)
    # 32 features in leaves of at most 4: 7 splits per tree
    assert want.nodes == 14 and want.iterations >= want.nodes - want.fallbacks


def test_agglomerate_header_reflects_k(workdir, capsys):
    code, _ = run(
        capsys, "agglomerate", workdir / "train.txt",
        "--partition", workdir / "part.npz", "--mode", "sum",
        "-o", workdir / "train_agg.txt",
    )
    assert code == 0
    agg = load_xc(str(workdir / "train_agg.txt"))
    part = load_partition(str(workdir / "part.npz"))
    assert agg.d == part.n_clusters


def test_cluster_metrics_report(workdir, capsys):
    code, out = run(
        capsys, "cluster-metrics", workdir / "train.txt",
        "--partition", workdir / "part.npz",
    )
    assert code == 0
    assert set(out) == {"lmi", "balance", "normalized_entropy"}
    assert out["balance"] <= 2.0


def test_full_pipeline_train_predict_eval(workdir, capsys):
    run(capsys, "agglomerate", workdir / "test.txt",
        "--partition", workdir / "part.npz", "-o", workdir / "test_agg.txt")
    code, out = run(capsys, "train", workdir / "train_agg.txt",
                    "-o", workdir / "model.json", "--epochs", "10", "--seed", "0")
    assert code == 0
    assert set(out) == {"backend", "dim", "labels", "train_seconds"}
    code, out = run(capsys, "predict", workdir / "test_agg.txt",
                    "--model", workdir / "model.json", "--k", "6",
                    "-o", workdir / "preds.txt")
    assert code == 0 and out["points"] == 40
    code, out = run(capsys, "eval", workdir / "preds.txt", workdir / "test.txt",
                    "--k", "1,3", "--propensity", "--train", workdir / "train.txt",
                    "--coverage")
    assert code == 0
    for key in ("P@1", "P@3", "nDCG@1", "PSP@1", "PSnDCG@3", "coverage@1"):
        assert 0.0 <= out[key] <= 1.0
    assert out["P@1"] > 0.5  # learnable synthetic data


def test_predict_ensemble_consensus(workdir, capsys):
    run(capsys, "train", workdir / "train_agg.txt", "-o", workdir / "m2.json",
        "--epochs", "10", "--seed", "5")
    code, out = run(
        capsys, "predict", workdir / "test_agg.txt",
        "--model", workdir / "model.json", "--model", workdir / "m2.json",
        "--k", "3", "-o", workdir / "preds_ens.txt",
    )
    assert code == 0 and out["models"] == 2
    # consensus averages scores, so the same model twice changes nothing
    run(capsys, "predict", workdir / "test_agg.txt",
        "--model", workdir / "model.json", "--model", workdir / "model.json",
        "--k", "3", "-o", workdir / "preds_dup.txt")
    run(capsys, "predict", workdir / "test_agg.txt",
        "--model", workdir / "model.json",
        "--k", "3", "-o", workdir / "preds_single.txt")
    dup = load_predictions(str(workdir / "preds_dup.txt"))
    single = load_predictions(str(workdir / "preds_single.txt"))
    for name in ("indptr", "labels", "scores"):
        assert getattr(dup, name).tobytes() == getattr(single, name).tobytes()


def test_predict_rejects_inconsistent_model(workdir, capsys, tmp_path):
    run(capsys, "train", workdir / "train_agg.txt", "-o", tmp_path / "model.npz",
        "--epochs", "1", "--seed", "0")
    arrays = npz_arrays(tmp_path / "model.npz")
    arrays["bias"] = arrays["bias"][:1]
    write_npz(tmp_path / "bad_model.npz", arrays)
    code = main(["predict", str(workdir / "test_agg.txt"),
                 "--model", str(tmp_path / "bad_model.npz"), "--k", "3",
                 "-o", str(tmp_path / "preds.txt")])
    assert code == 2
    assert "model bias" in capsys.readouterr().err


def test_cooc_impute_erase(workdir, capsys):
    code, out = run(capsys, "cooc", workdir / "train.txt",
                    "--partition", workdir / "part.npz",
                    "-o", workdir / "cooc.json")
    assert code == 0
    assert out["stored_entries"] <= 32 * 4
    code, _ = run(capsys, "erase", workdir / "test.txt", "--fraction", "0.5",
                  "--seed", "3", "-o", workdir / "test_erased.txt")
    assert code == 0
    erased = load_xc(str(workdir / "test_erased.txt"))
    original = load_xc(str(workdir / "test.txt"))
    assert erased.features.nnz < original.features.nnz
    code, _ = run(capsys, "impute", workdir / "test_erased.txt",
                  "--cooc", workdir / "cooc.json",
                  "-o", workdir / "test_imputed.txt")
    assert code == 0
    imputed = load_xc(str(workdir / "test_imputed.txt"))
    assert imputed.d == original.d


def test_impute_rejects_malformed_cooc(workdir, capsys, tmp_path):
    bad = tmp_path / "cooc.json"
    bad.write_text("[1]")
    code = main(["impute", str(workdir / "test.txt"), "--cooc", str(bad),
                 "-o", str(tmp_path / "imputed.txt")])
    assert code == 2
    assert "not an .npz archive" in capsys.readouterr().err


@pytest.fixture
def empty_data_and_cooc(tmp_path):
    """A dataset of 0 points and 5 features, and d = 3 co-occurrence blocks."""
    data = tmp_path / "empty.txt"
    data.write_text("0 5 1\n")
    part = FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])])
    save_cooc(PseudoCooc(part, np.ones(5)), str(tmp_path / "cooc.npz"))
    return data, tmp_path / "cooc.npz"


@pytest.mark.parametrize("command, message", [
    (["impute", "--cooc", "COOC"], "data dim 5 != co-occurrence dim 3"),
    (["impute", "--cooc", "COOC", "--blend", "2"], "lam must lie in [0, 1]"),
    (["erase", "--fraction", "3"], "fraction must lie in [0, 1]"),
])
def test_arguments_checked_without_rows(empty_data_and_cooc, capsys, tmp_path,
                                        command, message):
    data, cooc = empty_data_and_cooc
    argv = [command[0], str(data)] + [str(cooc) if a == "COOC" else a
                                      for a in command[1:]]
    code = main(argv + ["-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_impute_rejects_non_finite_blocks(workdir, capsys, tmp_path):
    path = tmp_path / "cooc.npz"
    assert run(capsys, "cooc", workdir / "train.txt", "--partition",
               workdir / "part.npz", "-o", path)[0] == 0
    arrays = npz_arrays(path)
    arrays["blocks"][[0, 3]] = [np.nan, np.inf]
    write_npz(path, arrays)
    code = main(["impute", str(workdir / "test.txt"), "--cooc", str(path),
                 "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert "co-occurrence blocks must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command, kind", [
    (command, kind) for kind in ("earlier-json",) + SPOILED_KINDS
    for command in ("predict", "impute", "agglomerate")
] + [("agglomerate", "earlier-text")])
def test_unreadable_model_or_cooc_exits_2(workdir, capsys, tmp_path, command, kind):
    if command == "predict":
        train = ["train", workdir / "train_agg.txt", "--epochs", "1"]
        use = ["predict", workdir / "test_agg.txt", "--model"]
        legacy = {"config": {}, "dim": 8, "bias": [0.0], "weights": [[0.0] * 8]}
    elif command == "impute":
        train = ["cooc", workdir / "train.txt", "--partition", workdir / "part.npz"]
        use = ["impute", workdir / "test.txt", "--cooc"]
        legacy = {"d": 1, "K": 1, "clusters": [[0]], "blocks": [[[1.0]]]}
    else:
        train = ["cluster", workdir / "train.txt", "--leaf-size", "8"]
        use = ["agglomerate", workdir / "test.txt", "--partition"]
        legacy = {"d": 32, "K": 1, "d0": 32, "seed": 0, "clusters": [list(range(32))]}
    path = tmp_path / "artifact.json"
    assert run(capsys, *train, "-o", path)[0] == 0
    if kind == "earlier-json":
        path.write_text(json.dumps(legacy))
    elif kind == "earlier-text":  # the feature_id cluster_id table
        path.write_text("".join(f"{j} {j // 8}\n" for j in range(32)))
    else:
        spoil_npz(path, kind)
    code = main([str(a) for a in use] + [str(path), "-o", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("featagg: data error: ") and "Traceback" not in err
    if kind.startswith("earlier-"):  # the message names the earlier format
        assert kind.removeprefix("earlier-") in err.lower()
        assert "of earlier versions are no longer read" in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("payload", [
    {"d": 3, "K": 1, "clusters": 5},
    {"d": 3, "K": None, "clusters": [[0, 1, 2]]},
    {"d": 3, "K": 1, "clusters": [[0, 1, 2.7]]},
])
def test_agglomerate_rejects_malformed_partition(payload, capsys, tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("1 3 1\n0 0:1 2:2\n")
    part = tmp_path / "part.json"
    part.write_text(json.dumps(payload))
    code = main(["agglomerate", str(data), "--partition", str(part),
                 "-o", str(tmp_path / "agg.txt")])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "agg.txt").exists()


def test_rerank_cli(workdir, capsys):
    code, _ = run(
        capsys, "rerank", workdir / "preds.txt", "--test", workdir / "test.txt",
        "--train", workdir / "train.txt", "--partition", workdir / "part.npz",
        "--alpha", "0.8", "-o", workdir / "reranked.txt",
    )
    assert code == 0
    code, out = run(capsys, "eval", workdir / "reranked.txt",
                    workdir / "test.txt", "--k", "1")
    assert code == 0 and 0.0 <= out["P@1"] <= 1.0


@pytest.fixture
def tiny_files(tmp_path):
    """A 3-point train file, a 0-point test file and predictions for it, and a
    two-cluster partition of the 4 features."""
    (tmp_path / "train.txt").write_text("3 4 2\n0 0:1 2:0.5\n1 1:2 3:1\n0,1 0:1 3:2\n")
    (tmp_path / "test.txt").write_text("0 4 2\n")
    save_predictions(Predictions([0], [], []), str(tmp_path / "preds.txt"))
    part = FeaturePartition.from_clusters(4, [np.array([0, 1]), np.array([2, 3])])
    save_partition(part, str(tmp_path / "part.npz"))
    return tmp_path


@pytest.mark.parametrize("split", ["kmeans", "ndcg"])
@pytest.mark.parametrize("leaf_size", ["2", "8"])
def test_cluster_rejects_max_iters_below_one(tiny_files, capsys, split, leaf_size):
    out = tiny_files / "part_out.npz"
    code = main(["cluster", str(tiny_files / "train.txt"), "-o", str(out),
                 "--split", split, "--leaf-size", leaf_size, "--max-iters", "0",
                 "--doc-fraction", "1.0"])
    assert code == 2
    assert "max_iters must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# every command that writes with -o; {out} is the output path
WRITING_COMMANDS = {
    "cluster": ["cluster", "{train}", "-o", "{out}", "--leaf-size", "2"],
    "agglomerate": ["agglomerate", "{train}", "--partition", "{part}", "-o", "{out}"],
    "train": ["train", "{train}", "-o", "{out}"],
    "predict": ["predict", "{train}", "--model", "{part}", "-o", "{out}"],
    "cooc": ["cooc", "{train}", "--partition", "{part}", "-o", "{out}"],
    "impute": ["impute", "{train}", "--cooc", "{part}", "-o", "{out}"],
    "erase": ["erase", "{train}", "--fraction", "0.5", "-o", "{out}"],
    "rerank": ["rerank", "{preds}", "--test", "{test}", "--train", "{train}",
               "--partition", "{part}", "-o", "{out}"],
}


def run_without_reading(tiny_files, monkeypatch, argv, out):
    """Exit code of argv, failing the test if it reads a dataset."""
    def load_xc(*args, **kwargs):
        raise AssertionError("a dataset was read")
    monkeypatch.setattr("featagg.cli.load_xc", load_xc)
    paths = {name: tiny_files / f"{name}.txt" for name in ("train", "test", "preds")}
    return main([a.format(part=tiny_files / "part.npz", out=out, **paths) for a in argv])


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_missing_output_directory_exits_2_before_reading(tiny_files, capsys,
                                                         monkeypatch, command):
    out = tiny_files / "nodir" / "out"
    before = sorted(tiny_files.iterdir())
    code = run_without_reading(tiny_files, monkeypatch, WRITING_COMMANDS[command], out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (f"featagg: data error: output directory "
                            f"{tiny_files / 'nodir'} does not exist\n")
    assert captured.out == "" and sorted(tiny_files.iterdir()) == before


@pytest.mark.parametrize("m", ["0", "-1"])
def test_cluster_rejects_empty_ensemble_before_reading(tiny_files, capsys,
                                                      monkeypatch, m):
    out = tiny_files / "part_out.npz"
    code = run_without_reading(tiny_files, monkeypatch,
                               WRITING_COMMANDS["cluster"] + ["--ensemble", m], out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "featagg: data error: ensemble size must be at least 1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("a, b, message", [
    ("0.55", "-1.5", "propensity B must be finite and positive, got -1.5"),
    ("0.55", "-1", "propensity B must be finite and positive, got -1.0"),
    ("-0.5", "1.5", "propensity A must be finite and nonnegative, got -0.5"),
    ("nan", "1.5", "propensity A must be finite and nonnegative, got nan"),
    ("0.55", "inf", "propensity B must be finite and positive, got inf"),
])
def test_eval_rejects_propensity_parameters(tiny_files, capsys, a, b, message):
    code = main(["eval", str(tiny_files / "preds.txt"), str(tiny_files / "test.txt"),
                 "--propensity", "--train", str(tiny_files / "train.txt"),
                 "--A", a, "--B", b])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("k", ["", "1,,3", "x", "1,x", "0", "1,-2", ",", "3,"])
def test_eval_checks_k_before_reading(tiny_files, capsys, monkeypatch, k):
    def load_predictions(*args, **kwargs):
        raise AssertionError("predictions were read")
    monkeypatch.setattr("featagg.cli.load_predictions", load_predictions)
    code = run_without_reading(tiny_files, monkeypatch,
                               ["eval", "{preds}", "{test}", "--k", k], None)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (f"featagg: data error: --k must list integers of at "
                            f"least 1, got {k!r}\n")
    assert captured.out == ""


def test_eval_reports_every_k(tiny_files, capsys):
    code = main(["eval", str(tiny_files / "preds.txt"), str(tiny_files / "test.txt"),
                 "--k", "1,3, 5"])
    assert code == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "points", "P@1", "nDCG@1", "P@3", "nDCG@3", "P@5", "nDCG@5"}


@pytest.mark.parametrize("option, message", [
    (["--alpha", "3"], "alpha must lie in [0, 1]"),
    (["--alpha", "-0.5"], "alpha must lie in [0, 1]"),
    (["--shortlist", "0"], "shortlist must be at least 1, got 0"),
    (["--shortlist", "-1"], "shortlist must be at least 1, got -1"),
    (["--gamma", "nan"], "gamma must be finite and positive, got nan"),
    (["--gamma", "inf"], "gamma must be finite and positive, got inf"),
    (["--gamma", "0"], "gamma must be finite and positive, got 0.0"),
])
def test_rerank_checks_settings_without_rows(tiny_files, capsys, option, message):
    out = tiny_files / "reranked.txt"
    code = main(["rerank", str(tiny_files / "preds.txt"),
                 "--test", str(tiny_files / "test.txt"),
                 "--train", str(tiny_files / "train.txt"),
                 "--partition", str(tiny_files / "part.npz"), "-o", str(out)]
                + option)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--alpha", "1.5"], "alpha must lie in [0, 1]"),
    (["--shortlist", "0"], "shortlist must be at least 1, got 0"),
    (["--gamma", "nan"], "gamma must be finite and positive, got nan"),
    (["--gamma", "inf"], "gamma must be finite and positive, got inf"),
])
def test_rerank_checks_settings_before_reading_files(tmp_path, capsys, option, message):
    missing = tmp_path / "missing.txt"
    code = main(["rerank", str(missing), "--test", str(missing), "--train", str(missing),
                 "--partition", str(missing), "-o", str(tmp_path / "out.txt")] + option)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv, message", [
    (["predict", "{missing}", "--model", "{missing}", "--model", "{missing}",
      "--partition", "{missing}", "-o", "{out}"],
     "give one --partition per --model, or none"),
    (["eval", "{missing}", "{missing}", "--k", "1", "--propensity"],
     "--propensity requires --train"),
])
def test_argument_mismatch_exits_2_before_reading_files(tmp_path, capsys, argv, message):
    # mismatched arguments are bad input (exit 2), not a broken invariant (3)
    paths = {"missing": tmp_path / "missing.txt", "out": tmp_path / "out.txt"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"featagg: data error: {message}\n"
    assert captured.out == "" and not paths["out"].exists()


def test_verify_subcommand(workdir, capsys):
    code, out = run(capsys, "verify", "--theorem", "lemma1", "--trials", "25",
                    "--seed", "0")
    assert code == 0
    assert out["all_hold"] is True


@pytest.mark.parametrize("theorem", ["lemma1", "thm1", "thm2"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(capsys, theorem, trials):
    # no trial would check anything, yet report that every bound holds
    assert main(["verify", "--theorem", theorem, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"trials must be at least 1, got {trials}" in captured.err


def test_exit_codes(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 1\n0 5:1\n")
    assert main(["stats", str(bad)]) == 2  # data error
    missing = tmp_path / "missing.txt"
    assert main(["stats", str(missing)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["cluster"])  # missing required args
    assert exc.value.code == 1  # usage error


@pytest.mark.parametrize("value", ["1e308", "1e200"])
@pytest.mark.parametrize("command", [
    ["stats"],
    ["cluster", "--leaf-size", "1", "--doc-fraction", "1", "--split", "ndcg",
     "-o", "{out}"],
    ["train", "-o", "{out}"],
])
def test_values_above_2_64_exit_2(tmp_path, capsys, command, value):
    # values this large overflow their squares and sums downstream
    data = tmp_path / "huge.txt"
    data.write_text(f"4 2 1\n0 0:1 1:2\n0 0:{value} 1:{value}\n"
                    f"0 0:{value}\n0 1:{value}\n")
    out = tmp_path / "out.npz"
    argv = [command[0], str(data)] + [a.format(out=out) for a in command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"featagg: data error: line 3: feature value '{value}' above 2**64\n")
    assert captured.out == "" and not out.exists()


def test_value_2_64_parses(tmp_path, capsys):
    data = tmp_path / "bound.txt"
    data.write_text("2 2 1\n0 0:18446744073709551616\n0 1:1\n")
    code, out = run(capsys, "stats", data)
    assert code == 0 and out["n"] == 2
    assert load_xc(str(data)).features.values.tolist() == [2.0 ** 64, 1.0]


B_TEXT = "18446744073709551616"  # 2**64


def test_agglomerate_refuses_a_sum_above_2_64(tmp_path, capsys):
    # one cluster of two features at 2**64: their sum is a value no dataset
    # file holds, their mean is 2**64
    data = tmp_path / "bound.txt"
    data.write_text(f"2 2 1\n0 0:{B_TEXT} 1:{B_TEXT}\n0 0:1 1:2\n")
    code, _ = run(capsys, "cluster", data, "-o", tmp_path / "p.npz", "--doc-fraction", 1)
    assert code == 0
    out = tmp_path / "agg.txt"
    assert main(["agglomerate", str(data), "--partition", str(tmp_path / "p.npz"),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "featagg: data error: row 0: feature value 3.6893488147419103e+19 lies outside "
        "[0, 2**64], the range of a dataset file\n")
    assert not out.exists()
    code, _ = run(capsys, "agglomerate", data, "--partition", tmp_path / "p.npz",
                  "--mode", "avg", "-o", out)
    assert code == 0
    assert load_xc(str(out)).features.values.tolist() == [2.0 ** 64, 1.5]


def test_impute_refuses_values_above_2_64(tmp_path, capsys):
    data = tmp_path / "bound.txt"
    rows = [" ".join(f"{j}:{B_TEXT}" for j in range(16)),
            " ".join(f"{j}:{B_TEXT}" for j in range(8)), "0:1 1:2"]
    data.write_text("3 16 1\n" + "".join(f"0 {r}\n" for r in rows))
    for argv in (["cluster", data, "-o", tmp_path / "p.npz", "--doc-fraction", 1],
                 ["cooc", data, "--partition", tmp_path / "p.npz", "-o", tmp_path / "c.npz"]):
        assert run(capsys, *argv)[0] == 0
    out = tmp_path / "imputed.txt"
    assert main(["impute", str(data), "--cooc", str(tmp_path / "c.npz"), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "featagg: data error: row 0: feature value 2.3333490674854064e+19 lies outside")
    assert not out.exists()


def test_one_based_flag(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("1 2 2\n1,2 1:3 2:4\n")
    code, out = run(capsys, "stats", p, "--one-based")
    assert code == 0 and out["avg_labels"] == 2.0


@pytest.mark.parametrize("k", ["-2", "0"])
def test_predict_rejects_k_below_one(workdir, capsys, tmp_path, k):
    code = main(["predict", str(workdir / "test_agg.txt"),
                 "--model", str(workdir / "model.json"), "--k", k,
                 "-o", str(tmp_path / "preds.txt")])
    assert code == 2
    assert f"k must be at least 1, got {k}" in capsys.readouterr().err
    assert not (tmp_path / "preds.txt").exists()


def test_predict_clamps_k_to_the_labels(workdir, capsys, tmp_path):
    code, out = run(capsys, "predict", workdir / "test_agg.txt",
                    "--model", workdir / "model.json", "--k", "50",
                    "-o", tmp_path / "preds.txt")
    assert code == 0 and out["k"] == 6
    preds = load_predictions(str(tmp_path / "preds.txt"))
    assert len(preds) == 40 and np.all(preds.lengths() == 6)


def test_predict_writes_exactly_the_output_path(workdir, capsys, tmp_path):
    code, _ = run(capsys, "predict", workdir / "test_agg.txt",
                  "--model", workdir / "model.json", "-o", tmp_path / "preds")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds"]
    assert len(load_predictions(str(tmp_path / "preds"))) == 40


@pytest.mark.parametrize("arrays, message", [
    (None, "predictions file is not an .npz archive (text predictions files of "
           "earlier versions are no longer read)"),
    ({"indptr": [0, 1, 2], "labels": [0, 1]}, "predictions file lacks scores"),
    ({"indptr": [0, 1, 2], "labels": [[0], [1]], "scores": [0.5, 0.5]},
     "predictions labels must be a 1-D integer array"),
    ({"indptr": [0, 1, 2], "labels": [0.0, 1.0], "scores": [0.5, 0.5]},
     "predictions labels must be a 1-D integer array"),
    ({"indptr": [0, 1, 3], "labels": [0, 2, 2], "scores": [0.5, 0.5, 0.25]},
     "prediction 1: label ids must be unique"),
    ({"indptr": [0, 1, 3], "labels": [0, 1, 2], "scores": [0.5, 0.25, 0.5]},
     "prediction 1: scores must be non-increasing"),
    ({"indptr": [0, 2, 1], "labels": [0], "scores": [0.5]}, "bad indptr"),
    ({"indptr": [0, 1, 2], "labels": [0, 9], "scores": [0.5, 0.5]},
     "prediction 1 has a label outside [0, 4)"),
    ({"indptr": [0, 1, 2], "labels": [0, -1], "scores": [0.5, 0.5]},
     "prediction 1 has a label outside [0, 4)"),
], ids=["text", "missing", "2d-labels", "float-labels", "repeated-label",
        "rising-score", "bad-indptr", "label-above", "negative-label"])
@pytest.mark.parametrize("command", ["eval", "rerank"])
def test_malformed_predictions_exit_2(tmp_path, capsys, arrays, message, command):
    data = tmp_path / "data.txt"
    data.write_text("2 3 4\n0 0:1\n1,3 1:1 2:2\n")
    part = tmp_path / "part.npz"
    save_partition(FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])]),
                   str(part))
    preds = tmp_path / "preds.txt"
    if arrays is None:  # a predictions file of an earlier version
        preds.write_text("0:0.5\n1:0.5\n")
    else:
        write_npz(preds, arrays)
    argv = ["eval", str(preds), str(data), "--k", "1"]
    if command == "rerank":
        argv = ["rerank", str(preds), "--test", str(data), "--train", str(data),
                "--partition", str(part), "-o", str(tmp_path / "out.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("featagg: data error: ") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out.txt").exists()


def test_predict_rejects_mismatched_models(workdir, capsys, tmp_path):
    # the models disagree on the label count, or the data on the model's dim
    # (checked even when there are no points to score)
    one_label = tmp_path / "one.txt"
    one_label.write_text("2 8 1\n0 0:1\n0 1:1\n")
    assert run(capsys, "train", one_label, "-o", tmp_path / "m1.npz",
               "--epochs", "1")[0] == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("0 3 6\n")
    for data, models, message in [
        (workdir / "test_agg.txt", [workdir / "model.json", tmp_path / "m1.npz"],
         "same number of labels"),
        (empty, [workdir / "model.json"], "matrix cols 3 != model dim"),
    ]:
        argv = ["predict", str(data), "-o", str(tmp_path / "preds.txt")]
        for model in models:
            argv += ["--model", str(model)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "preds.txt").exists()
