#!/usr/bin/env python3
"""Benchmark the numba-jitted kernels against their pure-numpy fallbacks.

Times every kernel pair on synthetic CSR inputs and prints a side-by-side
table. The first jit call compiles; a warmup run absorbs that before timing.

Usage:
    python benchmarks/bench_backends.py [--n 50000] [--d 8192] [--nnz 32]
                                        [--iterations 7]

The active-backend selection (FEATAGG_BACKEND) does not matter here: both
implementations are timed through the featagg.kernels.IMPLS registry.
"""

import argparse
import time

import numpy as np

from featagg import kernels


def make_csr(rng, nrows, ncols, nnz_per_row):
    nnz_per_row = min(nnz_per_row, ncols)
    indices = np.concatenate(
        [np.sort(rng.choice(ncols, size=nnz_per_row, replace=False))
         for _ in range(nrows)]
    ).astype(np.int64)
    indptr = np.arange(0, nnz_per_row * (nrows + 1), nnz_per_row, dtype=np.int64)
    values = rng.uniform(0.1, 2.0, size=nnz_per_row * nrows)
    return indptr, indices, values


def bench(fn, args, iterations, warmup=2):
    for _ in range(warmup):
        fn(*args)
    times = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def build_cases(rng, n, d, nnz):
    csr = make_csr(rng, n, d, nnz)
    indptr, indices, values = csr
    dense = rng.normal(size=d)
    rows = rng.choice(n, size=n // 2, replace=False).astype(np.int64)
    weights_rows = rng.normal(size=rows.shape[0])

    n_clusters = max(d // 8, 1)
    cluster_of = rng.integers(0, n_clusters, size=d).astype(np.int64)
    divisors = np.empty(0, dtype=np.float64)

    sizes = np.bincount(cluster_of, minlength=n_clusters).astype(np.int64)
    # reindex so every cluster is nonempty and offsets are consistent
    keep = np.flatnonzero(sizes)
    remap = np.full(n_clusters, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.shape[0])
    cluster_of = remap[cluster_of]
    sizes = sizes[keep]
    offset_of = np.empty(d, dtype=np.int64)
    for k in range(sizes.shape[0]):
        members = np.flatnonzero(cluster_of == k)
        offset_of[members] = np.arange(members.shape[0])
    block_start = np.concatenate(([0], np.cumsum(sizes * sizes)))[:-1].astype(np.int64)
    flat_len = int((sizes * sizes).sum())

    # ova_sgd trains a block of labels per call: sign is (labels, n), order
    # holds every label's epochs of sample order, flattened label-major
    sgd_labels, sgd_epochs = 8, 2
    sign = rng.choice([-1.0, 1.0], size=(sgd_labels, n))
    order = np.concatenate(
        [rng.permutation(n) for _ in range(sgd_labels * sgd_epochs)]
    ).astype(np.int64)
    weight_matrix = rng.normal(size=(16, d))
    bias = rng.normal(size=16)

    return {
        "row_dots": (indptr, indices, values, dense),
        "sum_rows": (indptr, indices, values, rows, d),
        "weighted_sum_rows": (indptr, indices, values, rows, weights_rows, d),
        "transpose_csr": (indptr, indices, values, n, d),
        "agglomerate_csr": (indptr, indices, values, cluster_of,
                            sizes.shape[0], divisors),
        "cooc_accumulate": lambda impl: impl(
            indptr, indices, values, cluster_of, offset_of, block_start,
            sizes, np.zeros(flat_len),
        ),
        "ova_sgd": (indptr, indices, values, sign, order, d, 0.3, 1e-4, 1.0, n),
        "score_rows": (indptr, indices, values, weight_matrix, bias),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--d", type=int, default=8192)
    parser.add_argument("--nnz", type=int, default=32)
    parser.add_argument("--iterations", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if not kernels.HAVE_NUMBA:
        raise SystemExit("numba is not importable; nothing to compare")

    rng = np.random.default_rng(args.seed)
    cases = build_cases(rng, args.n, args.d, args.nnz)

    print(f"n={args.n} d={args.d} nnz/row={args.nnz} "
          f"iterations={args.iterations} (median)")
    print(f"{'kernel':<20} {'numpy':>12} {'numba':>12} {'speedup':>9}")
    print("-" * 56)
    for name, case in cases.items():
        np_fn = kernels.IMPLS["numpy"][name]
        nb_fn = kernels.IMPLS["numba"][name]
        if callable(case) and not isinstance(case, tuple):
            t_np = bench(lambda: case(np_fn), (), args.iterations)
            t_nb = bench(lambda: case(nb_fn), (), args.iterations)
        else:
            t_np = bench(np_fn, case, args.iterations)
            t_nb = bench(nb_fn, case, args.iterations)
        print(f"{name:<20} {t_np * 1e3:>10.2f}ms {t_nb * 1e3:>10.2f}ms "
              f"{t_np / t_nb:>8.1f}x")


if __name__ == "__main__":
    main()
