"""Values at the ends of the validated range, B = 2**64 and the subnormals,
keep every stage of the pipeline finite and free of warnings."""

import json

import numpy as np
import pytest

from featagg import splits
from featagg.cli import main
from featagg.cooc import build_cooc, load_cooc
from featagg.dataio import Dataset, load_xc, save_xc
from featagg.linear import load_model
from featagg.reprs import ReprSet, normalize
from featagg.reranking import build_prototypes
from featagg.sparse import MAX_VALUE, SparseMatrix
from featagg.tree import leaves, load_partition, make_tree
from featagg.xcmetrics import load_predictions


def csr(dense: np.ndarray) -> SparseMatrix:
    row, col = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=dense.shape[0]))))
    return SparseMatrix(dense.shape[0], dense.shape[1], indptr, col, dense[row, col])


def bound_dataset(seed: int) -> Dataset:
    """60 points over 24 features and 5 labels, half the stored values B."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.1, 2.0, (60, 24)) * (rng.random((60, 24)) < 0.3)
    dense[(dense > 0) & (rng.random(dense.shape) < 0.5)] = MAX_VALUE
    labels = rng.random((60, 5)) < 0.4
    labels[:, 0] |= ~labels.any(axis=1)
    return Dataset(csr(dense), csr(labels.astype(np.float64)))


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1])
def test_pipeline_at_the_bound_stays_finite(tmp_path, capsys, seed):
    ds = bound_dataset(seed)
    data = tmp_path / "data.txt"
    save_xc(ds, str(data))
    for split in ("kmeans", "ndcg"):
        for normalized in ("", "--no-normalize"):
            run("cluster", data, "-o", tmp_path / "part.npz", "--leaf-size", 2,
                "--doc-fraction", 1, "--split", split, *filter(None, [normalized]))
    part = tmp_path / "part.npz"
    run("agglomerate", data, "--partition", part, "--mode", "avg", "-o", tmp_path / "agg.txt")
    agg = load_xc(str(tmp_path / "agg.txt"))
    assert agg.features.values.max() == MAX_VALUE
    run("train", data, "-o", tmp_path / "model.npz", "--epochs", 3)
    model = load_model(str(tmp_path / "model.npz"))
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
    run("predict", data, "--model", tmp_path / "model.npz", "--k", 3, "-o", tmp_path / "p.npz")
    run("cooc", data, "--partition", part, "-o", tmp_path / "cooc.npz")
    assert all(np.isfinite(b).all() for b in load_cooc(str(tmp_path / "cooc.npz")).blocks)
    for normalized in ("", "--no-normalize"):
        run("rerank", tmp_path / "p.npz", "--test", data, "--train", data, "--partition", part,
            "-o", tmp_path / "r.npz", *filter(None, [normalized]))
        # a predictions file holds finite scores, or it does not load
        assert len(load_predictions(str(tmp_path / "r.npz"))) == ds.n
    capsys.readouterr()
    c = build_cooc(ds, load_partition(str(part)))
    for normalize_prototypes in (False, True):
        ps = build_prototypes(c, ds, normalize=normalize_prototypes)
        assert np.isfinite(ps.matrix.values).all() and np.isfinite(ps.sq_norms()).all()


@pytest.mark.filterwarnings("error")
def test_kmeans_on_signed_bound_representatives_stays_finite(rng):
    dense = rng.choice([-MAX_VALUE, MAX_VALUE, 0.5, -1.5, 0.0], (40, 12))
    for rs in (ReprSet(csr(dense), kind="x"), normalize(ReprSet(csr(dense), kind="x"))):
        assert np.isfinite(rs.matrix.row_sq_norms()).all()
        part = leaves(make_tree(rs, d0=2, seed=3))
        assert sorted(np.concatenate(part.clusters).tolist()) == list(range(40))


@pytest.mark.filterwarnings("error")
def test_ndcg_weights_of_subnormal_rows_are_finite(tmp_path, capsys):
    # a representative of subnormal values has a gain below 2**-1022: its
    # inverse would overflow, so the gain counts as 2**-1022
    tiny = SparseMatrix(3, 2, [0, 2, 3, 4], [0, 1, 1, 0], [1e-320, 2e-320, 5e-324, 0.25])
    inverses = splits._ideal_inverses(tiny, None)
    assert inverses[:2].tolist() == [2.0 ** 1022] * 2
    assert inverses[2] == 1.0 / (0.25 / np.log(2.0))
    data = tmp_path / "tiny.txt"
    data.write_text("4 2 1\n0 0:1e-320 1:1e-320\n0 0:1e-320\n0 1:1e-320\n0 0:1e-320 1:2e-320\n")
    for normalized in ("", "--no-normalize"):
        run("cluster", data, "-o", tmp_path / "part.npz", "--leaf-size", 1, "--doc-fraction", 1,
            "--split", "ndcg", *filter(None, [normalized]))
        assert json.loads(capsys.readouterr().out)["K"] == 2
