import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from featagg.cooc import (
    PseudoCooc,
    build_cooc,
    erase,
    erase_matrix,
    impute,
    impute_matrix,
    load_cooc,
    save_cooc,
)
from featagg.errors import InvariantError
from featagg.sparse import SparseMatrix, SparseVec
from featagg.tree import PARTITION_ARRAYS, FeaturePartition, load_partition, save_partition

from helpers import (
    SPOILED_KINDS,
    dataset_from_dense,
    dense_cooc_oracle,
    npz_arrays,
    spoil_npz,
    vec,
    write_npz,
)


@pytest.fixture
def toy_blocks():
    # points (1, 2, 0) and (0, 1, 3); clusters {0, 1} and {2}
    ds = dataset_from_dense([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]], [set()] * 2, 1)
    part = FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])])
    return ds, part, build_cooc(ds, part)


class TestBuildCooc:
    def test_hand_computed_blocks(self, toy_blocks):
        _, _, c = toy_blocks
        assert np.array_equal(c.blocks[0], np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(c.blocks[1], np.array([[9.0]]))

    def test_empty_dataset_zero_blocks(self):
        ds = dataset_from_dense(np.zeros((0, 3)), [], 1)
        part = FeaturePartition.from_clusters(3, [np.array([0, 1]), np.array([2])])
        c = build_cooc(ds, part)
        assert all(np.all(b == 0) for b in c.blocks)

    def test_identity_partition_gives_squared_column_norms(self, rng):
        feats = rng.random((8, 5)) * (rng.random((8, 5)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * 8, 1)
        part = FeaturePartition.from_clusters(5, [np.array([j]) for j in range(5)])
        c = build_cooc(ds, part)
        for j in range(5):
            assert c.blocks[j][0, 0] == pytest.approx((feats[:, j] ** 2).sum())

    def test_matches_dense_oracle(self, rng):
        feats = rng.random((12, 9)) * (rng.random((12, 9)) > 0.5)
        ds = dataset_from_dense(feats, [set()] * 12, 1)
        part = FeaturePartition.from_clusters(
            9, [np.array([0, 3, 5]), np.array([1, 2]), np.array([4, 6, 7, 8])]
        )
        c = build_cooc(ds, part)
        oracle = dense_cooc_oracle(feats, part.clusters)
        for k, cluster in enumerate(part.clusters):
            assert np.allclose(c.blocks[k], oracle[np.ix_(cluster, cluster)],
                               atol=1e-9)

    def test_blocks_symmetric_psd(self, rng):
        feats = rng.random((10, 6)) * (rng.random((10, 6)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * 10, 1)
        part = FeaturePartition.from_clusters(6, [np.arange(0, 3), np.arange(3, 6)])
        c = build_cooc(ds, part)
        for block in c.blocks:
            assert np.allclose(block, block.T)
            assert np.linalg.eigvalsh(block).min() >= -1e-9

    def test_storage_bound(self, rng):
        feats = rng.random((5, 16)) * (rng.random((5, 16)) > 0.5)
        ds = dataset_from_dense(feats, [set()] * 5, 1)
        part = FeaturePartition.from_clusters(
            16, [np.arange(0, 5), np.arange(5, 10), np.arange(10, 13),
                 np.arange(13, 16)]
        )
        c = build_cooc(ds, part)
        assert c.stored_entries() <= 16 * 5

    def test_dim_mismatch(self, toy_blocks):
        ds, part, _ = toy_blocks
        bad = FeaturePartition.from_clusters(2, [np.array([0]), np.array([1])])
        with pytest.raises(ValueError):
            build_cooc(ds, bad)

    def test_row_normalize(self, toy_blocks):
        ds, part, _ = toy_blocks
        c = build_cooc(ds, part, row_normalize=True)
        for block in c.blocks:
            sums = block.sum(axis=1)
            assert np.allclose(sums[sums != 0], 1.0)

    @pytest.mark.parametrize("flat, message", [
        (np.ones(4), "blocks hold 4 values, one block per cluster needs 5"),
        (np.ones((5, 1)), "needs 5 in one flat array"),
        (np.array([1.0, np.nan, 0.0, 0.0, 1.0]), "must be finite"),
        (np.array([1.0, 0.0, 0.0, 0.0, -np.inf]), "must be finite"),
    ])
    def test_constructor_rejects_malformed_blocks(self, toy_blocks, flat, message):
        _, part, _ = toy_blocks
        with pytest.raises(ValueError, match=message):
            PseudoCooc(part, flat)


class TestImpute:
    def test_hand_computed(self, toy_blocks):
        _, _, c = toy_blocks
        out = impute(c, SparseVec.from_dense(np.array([0.0, 1.0, 0.0])))
        assert np.allclose(out.to_dense(), [2.0, 5.0, 0.0])

    def test_zero_vector(self, toy_blocks):
        _, _, c = toy_blocks
        assert impute(c, SparseVec(3)).nnz == 0

    def test_block_locality(self, toy_blocks):
        _, _, c = toy_blocks
        out = impute(c, vec(3, {2: 2.0}))
        assert set(out.indices.tolist()) <= {2}

    @pytest.mark.parametrize("row_normalize", [False, True])
    def test_matches_dense_oracle(self, rng, row_normalize):
        feats = rng.random((10, 8)) * (rng.random((10, 8)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * 10, 1)
        part = FeaturePartition.from_clusters(
            8, [np.array([0, 2, 4]), np.array([1, 7]), np.array([3, 5, 6])]
        )
        c = build_cooc(ds, part, row_normalize=row_normalize)
        C = dense_cooc_oracle(feats, part.clusters)
        if row_normalize:  # rows summing to 1 make C unsymmetric
            rs = C.sum(axis=1)
            C[rs != 0] /= rs[rs != 0, None]
            assert not np.allclose(C, C.T)
        for _ in range(5):
            x = rng.random(8) * (rng.random(8) > 0.5)
            got = impute(c, SparseVec.from_dense(x)).to_dense()
            assert np.allclose(got, C @ x, atol=1e-9)

    def test_linearity(self, rng, toy_blocks):
        _, _, c = toy_blocks
        x = SparseVec.from_dense(rng.random(3))
        y = SparseVec.from_dense(rng.random(3))
        a, b = 2.5, -1.5
        combo = SparseVec.from_dense(a * x.to_dense() + b * y.to_dense())
        lhs = impute(c, combo).to_dense()
        rhs = a * impute(c, x).to_dense() + b * impute(c, y).to_dense()
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_dim_mismatch(self, toy_blocks):
        _, _, c = toy_blocks
        with pytest.raises(ValueError):
            impute(c, SparseVec(5))

    def test_one_vector_costs_no_o_d_work(self):
        # 4096 clusters of 8: the blocks take 2 MiB, the product of 3 entries
        # touches 3 clusters
        d, d0 = 1 << 15, 8
        part = FeaturePartition.from_clusters(d, np.split(np.arange(d), d // d0))
        c = PseudoCooc(part, np.ones(d * d0))
        x = vec(d, {3: 1.0, 100: 2.0, 20000: -1.0})
        impute(c, x)
        tracemalloc.start()
        try:
            out = impute(c, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nnz == 3 * d0
        assert peak < d * d0 * 8 / 50

    def test_equal_after_apply(self, toy_blocks):
        # the transpose cached by the first product takes no part in equality
        ds, part, c = toy_blocks
        again = build_cooc(ds, part)
        x = vec(3, {0: 1.0, 2: 2.0})
        impute(c, x)  # c alone holds its transpose
        assert c == again and again == c
        assert impute(again, x) == impute(c, x)  # now both do
        assert c == again
        assert c != build_cooc(ds, part, row_normalize=True)

    def test_blend_recovers_input_at_lambda_one(self, toy_blocks):
        _, _, c = toy_blocks
        x = vec(3, {0: 1.0, 2: 2.0})
        assert blend_row(c, x, lam=1.0) == x


def sequential_norm(x: SparseVec) -> float:
    """L2 norm with the squares added one at a time in stored order."""
    total = 0.0
    for square in x.values * x.values:
        total += square
    return math.sqrt(total)


def blend_row(c, x, lam):
    """impute_matrix of the one-row matrix holding x."""
    return impute_matrix(c, SparseMatrix.from_rows([x]), lam).row(0)


def dense_blend(c, x, lam):
    """The blend of x through a dense length-d vector."""
    imputed = impute(c, x)
    ni, nx = sequential_norm(imputed), sequential_norm(x)
    scale = nx / ni if ni > 0 and nx > 0 else 1.0
    dense = imputed.to_dense() * ((1.0 - lam) * scale)
    dense[x.indices] += lam * x.values
    return SparseVec.from_dense(dense)


class TestImputeBlend:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    def test_bitwise_equal_to_dense_formula(self, rng, lam):
        feats = rng.random((10, 8)) * (rng.random((10, 8)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * 10, 1)
        part = FeaturePartition.from_clusters(
            8, [np.array([0, 2, 4]), np.array([1, 7]), np.array([3, 5, 6])]
        )
        c = build_cooc(ds, part)
        # the empty vector, then random ones
        xs = [SparseVec(8)] + [
            SparseVec.from_dense(rng.normal(size=8) * (rng.random(8) > 0.5))
            for _ in range(10)
        ]
        for x in xs:
            got, want = blend_row(c, x, lam), dense_blend(c, x, lam)
            assert got.dim == want.dim == 8
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_matrix_rows_equal_blend_bitwise(self, rng, lam):
        feats = rng.random((10, 8)) * (rng.random((10, 8)) > 0.4)
        ds = dataset_from_dense(feats, [set()] * 10, 1)
        part = FeaturePartition.from_clusters(
            8, [np.array([0, 2, 4]), np.array([1, 7]), np.array([3, 5, 6])]
        )
        c = build_cooc(ds, part, row_normalize=lam == 0.3)
        dense = rng.normal(size=(30, 8)) * (rng.random((30, 8)) > 0.6)
        dense[::7] = 0.0  # empty rows
        sm = SparseMatrix.from_rows([SparseVec.from_dense(r) for r in dense], 8)
        got = impute_matrix(c, sm, lam)
        assert got.rows == 30 and got.cols == 8
        for i in range(30):
            for want in blend_row(c, sm.row(i), lam), dense_blend(c, sm.row(i), lam):
                assert got.row(i).indices.tobytes() == want.indices.tobytes()
                assert got.row(i).values.tobytes() == want.values.tobytes()

    def test_cancelling_entries_dropped(self):
        # the imputation of x is (-1, 1) with x's norm, so at lam = 0.5
        # entry 0 is -0.5 + 0.5 = 0 exactly
        part = FeaturePartition.from_clusters(3, [np.array([0]), np.array([1, 2])])
        c = PseudoCooc(part, np.array([-1.0, 1.0, 0.0, 0.0, 1.0]))
        x = vec(3, {0: 1.0, 1: 1.0})
        got = blend_row(c, x, 0.5)
        assert got == vec(3, {1: 1.0}) == dense_blend(c, x, 0.5)


def reference_erase_matrix(sm, fraction, rng):
    """erase_matrix as one SparseVec and at most one rng.choice call per row."""
    rows = []
    for i in range(sm.rows):
        x = sm.row(i)
        remove = int(np.floor(fraction * x.nnz + 0.5))
        if remove >= x.nnz:
            x = SparseVec(x.dim, validate=False)
        elif remove > 0:
            drop = rng.choice(x.nnz, size=remove, replace=False)
            keep = np.ones(x.nnz, dtype=bool)
            keep[drop] = False
            x = SparseVec(x.dim, x.indices[keep], x.values[keep], validate=False)
        rows.append(x)
    return SparseMatrix.from_rows(rows, sm.cols)


ERASE_FRACTIONS = [0.0, 0.01, 0.25, 0.3, 0.5, 0.75, 1.0]


def assert_same_matrix(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestErase:
    @pytest.mark.parametrize("fraction", ERASE_FRACTIONS)
    def test_matrix_equals_row_loop_bitwise(self, rng, fraction):
        dense = rng.random((40, 30)) * (rng.random((40, 30)) > 0.6)
        dense[rng.random(40) < 0.2] = 0.0  # empty rows
        sm = SparseMatrix.from_rows([SparseVec.from_dense(r) for r in dense], 30)
        for seed in (0, 11):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_matrix(erase_matrix(sm, fraction, got_rng),
                               reference_erase_matrix(sm, fraction, want_rng))
            # the same draws were made, so the streams continue alike
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("fraction", ERASE_FRACTIONS)
    def test_vector_is_one_row_matrix(self, rng, fraction):
        for seed in range(10):
            x = SparseVec.from_dense(rng.random(12) * (rng.random(12) > 0.3))
            got = erase(x, fraction, np.random.default_rng(seed))
            want = erase_matrix(SparseMatrix.from_rows([x]), fraction,
                                np.random.default_rng(seed))
            assert_same_matrix(SparseMatrix.from_rows([got]), want)

    def test_matrix_bad_fraction(self, rng):
        with pytest.raises(ValueError, match=r"fraction must lie in \[0, 1\]"):
            erase_matrix(SparseMatrix(1, 3, [0, 0], [], []), -0.1, rng)

    def test_zero_fraction_unchanged(self, rng):
        x = vec(6, {0: 1.0, 3: 2.0})
        assert erase(x, 0.0, rng) == x

    def test_full_fraction_empties(self, rng):
        x = vec(6, {0: 1.0, 3: 2.0})
        assert erase(x, 1.0, rng).nnz == 0

    def test_half_of_four_keeps_two(self, rng):
        x = vec(8, {0: 1.0, 2: 1.0, 4: 1.0, 6: 1.0})
        out = erase(x, 0.5, rng)
        assert out.nnz == 2
        assert set(out.indices.tolist()) <= {0, 2, 4, 6}

    @pytest.mark.parametrize("nnz, kept", [(1, 0), (3, 1), (5, 2)])
    def test_half_rounds_up(self, rng, nnz, kept):
        # floor(0.5 * nnz + 0.5) entries go; Python's round, which rounds
        # halves to even, would keep 1, 1 and 3
        x = vec(8, {j: 1.0 for j in range(nnz)})
        assert erase(x, 0.5, rng).nnz == kept
        sm = SparseMatrix.from_rows([x, x])
        assert erase_matrix(sm, 0.5, rng).row_nnz().tolist() == [kept, kept]

    def test_deterministic_given_seed(self):
        x = vec(20, {j: float(j + 1) for j in range(0, 20, 2)})
        a = erase(x, 0.4, np.random.default_rng(3))
        b = erase(x, 0.4, np.random.default_rng(3))
        assert a == b

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            erase(SparseVec(3), 1.5, rng)


class TestPersistence:
    def test_json_round_trip(self, toy_blocks, tmp_path):
        _, _, c = toy_blocks
        path = tmp_path / "cooc.json"
        save_cooc(c, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cooc.json"]
        again = load_cooc(str(path))
        assert again.d == c.d and again.row_normalized == c.row_normalized
        assert np.array_equal(again.partition.cluster_of, c.partition.cluster_of)
        for a, b in zip(again.blocks, c.blocks):
            assert np.array_equal(a, b)
        x = vec(3, {1: 1.0})
        assert impute(again, x) == impute(c, x)

    def test_row_normalized_round_trip(self, rng, tmp_path):
        feats = rng.random((12, 9)) * (rng.random((12, 9)) > 0.5)
        ds = dataset_from_dense(feats, [set()] * 12, 1)
        part = FeaturePartition.from_clusters(
            9, [np.array([0, 3, 5]), np.array([1, 2]), np.array([4, 6, 7, 8])]
        )
        c = build_cooc(ds, part, row_normalize=True)
        save_cooc(c, str(tmp_path / "cooc.npz"))
        again = load_cooc(str(tmp_path / "cooc.npz"))
        assert again.row_normalized
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again.blocks, c.blocks))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: {k: v for k, v in a.items() if k != "blocks"}, "lacks blocks"),
            (lambda a: {k: v for k, v in a.items() if k != "d"}, "lacks d"),
            (lambda a: {**a, "d": np.array([3])}, "d must be a 0-D int"),
            (lambda a: {**a, "d": np.array(4)}, "expected d = 4"),
            (lambda a: {**a, "d": np.array(-1)}, "non-negative integer"),
            (lambda a: {**a, "sizes": np.array([[2, 1]])}, "sizes must be a 1-D"),
            (lambda a: {**a, "sizes": np.array([4, -1])}, "must be non-negative"),
            (lambda a: {**a, "features": np.array([[0, 1, 2]])}, "with shape (1, 3)"),
            (lambda a: {**a, "features": np.array(["0", "1", "2"])},
             "integer array, got <U1"),
            (lambda a: {**a, "features": np.array([0.0, 1.0, 2.0])},
             "array, got float64"),
            (lambda a: {**a, "blocks": np.ones((5, 1))}, "blocks must be a 1-D"),
            (lambda a: {**a, "blocks": np.array(["1"] * 5)}, "float array, got <U1"),
            (lambda a: {**a, "blocks": np.ones(4)}, "blocks hold 4 values"),
            (lambda a: {**a, "blocks": np.ones(6)}, "blocks hold 6 values"),
            (lambda a: {**a, "blocks": a["blocks"][4:]}, "one block per"),
            (lambda a: {**a, "row_normalized": np.array(1)}, "row_normalized must be"),
            (lambda a: {**a, "features": np.array([1, 0, 2])},
             "features must increase within each cluster"),
            (lambda a: {**a, "blocks": np.array([1.0, np.nan, 2.0, 5.0, 9.0])},
             "blocks must be finite"),
            (lambda a: {**a, "blocks": np.array([1.0, 2.0, 2.0, 5.0, np.inf])},
             "blocks must be finite"),
        ],
    )
    def test_malformed_file_is_value_error(self, toy_blocks, tmp_path, edit, message):
        _, part, c = toy_blocks
        path = tmp_path / "cooc.npz"
        save_cooc(c, str(path))
        arrays = npz_arrays(path)
        spoiled = edit(arrays)
        write_npz(path, spoiled)
        with pytest.raises(ValueError, match="^co-occurrence .*" + re.escape(message)):
            load_cooc(str(path))
        # a partition file stores d, sizes and features alike, and one decoder
        # reads them from both files
        if all(spoiled.get(name) is arrays[name] for name in PARTITION_ARRAYS):
            return
        path = tmp_path / "part.npz"
        save_partition(part, str(path))
        write_npz(path, {name: spoiled[name] for name in spoiled if name in PARTITION_ARRAYS}
                  | {"config": npz_arrays(path)["config"]})
        with pytest.raises(ValueError, match="^partition .*" + re.escape(message)):
            load_partition(str(path))

    @pytest.mark.parametrize("kind", SPOILED_KINDS)
    def test_unreadable_file_is_value_error(self, toy_blocks, tmp_path, kind):
        _, _, c = toy_blocks
        path = tmp_path / "cooc.npz"
        save_cooc(c, str(path))
        spoil_npz(path, kind)
        with pytest.raises(ValueError, match="^co-occurrence file is not"):
            load_cooc(str(path))

    @pytest.mark.parametrize("payload", [
        [1],
        {"d": 3, "K": 2, "clusters": [[0, 1], [2]],
         "blocks": [[[1.0, 2.0], [2.0, 5.0]], [[9.0]]], "row_normalized": False},
    ], ids=["json-list", "earlier-version"])
    def test_json_file_is_value_error(self, tmp_path, payload):
        path = tmp_path / "cooc.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="JSON co-occurrence files of earlier"):
            load_cooc(str(path))

    def test_overlapping_clusters_are_invariant_error(self, toy_blocks, tmp_path):
        _, _, c = toy_blocks
        path = tmp_path / "cooc.npz"
        save_cooc(c, str(path))
        arrays = npz_arrays(path)
        arrays["features"] = np.array([0, 1, 1])
        write_npz(path, arrays)
        with pytest.raises(InvariantError, match="overlap"):
            load_cooc(str(path))
