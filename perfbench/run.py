#!/usr/bin/env python3
"""Pipeline benchmark for featagg.

Runs one workload (cluster, rerank or impute) of the README pipeline
in-process, checks its outputs and prints every metric by name with its unit.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload cluster --seed 0 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
untraced passes for half the time and traced passes for the other half, and
reports the per-layer metrics. Run it from the repository root: featagg is
imported from ./src, with the numpy kernel backend forced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from tracing import KERNELS, StageFailed, Stages, Tracer, from_wrapper, self_name

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
MIN_PASSES = 3

END_TO_END = {
    "pipeline_s": "s",
    "nnz_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Stages whose self time (duration minus nested kernel spans) is reported.
SELF_TIMED = (
    "reprs.build_s", "tree.kmeans_s", "tree.ndcg_s", "agglomerate.s",
    "cluster_quality.s", "linear.train_s", "linear.predict_s", "cooc.build_s",
    "reranking.prototypes_s", "reranking.rerank_s",
)


def _per_layer_units() -> dict[str, str]:
    units = {
        "dataio.parse_s": "s", "dataio.parse_mb_per_s": "MB/s",
        "dataio.write_s": "s", "dataio.bytes_in": "B", "dataio.bytes_out": "B",
        "reprs.build_s": "s", "reprs.nnz": "count",
        "tree.kmeans_s": "s", "tree.ndcg_s": "s", "tree.io_s": "s",
        "tree.nodes": "count", "splits.iterations": "count",
        "splits.non_converged": "count", "splits.fallbacks": "count",
        "agglomerate.s": "s", "agglomerate.nnz_ratio": "ratio",
        "cluster_quality.s": "s", "cluster_quality.lmi_kmeans": "ratio",
        "cluster_quality.lmi_ndcg": "ratio",
        "linear.train_s": "s", "linear.sgd_steps": "count",
        "linear.sgd_steps_per_s": "1/s", "linear.predict_s": "s",
        "linear.model_io_s": "s", "linear.model_bytes": "B",
        "xcmetrics.eval_s": "s", "xcmetrics.io_s": "s",
        "xcmetrics.p_at_1": "ratio", "xcmetrics.psp_at_5": "ratio",
        "xcmetrics.coverage_at_5": "ratio",
        "cooc.build_s": "s", "cooc.io_s": "s", "cooc.erase_s": "s",
        "cooc.impute_s": "s", "cooc.stored_entries": "count",
        "cooc.impute_gain_pp": "pp",
        "reranking.prototypes_s": "s", "reranking.rerank_s": "s",
    }
    for stage in SELF_TIMED:
        units[self_name(stage)] = "s"
    for name in KERNELS:
        units[f"kernels.{name}.calls"] = "count"
        units[f"kernels.{name}.s"] = "s"
    units.update({
        "stages.uncovered_s": "s", "stages.covered_frac": "ratio",
        "trace_overhead_s": "s", "failed_ops_frac": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cluster", "rerank", "impute"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test")
    ap.add_argument("--report", help="also write the full report (environment, "
                    "shape, per-pass times, failures) to this JSON file")
    return ap.parse_args(argv)


def import_featagg():
    """Import featagg from the checkout's src/, numpy backend; seconds taken."""
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "featagg", "__init__.py")):
        raise SystemExit(f"featagg sources not found under {src}; run the "
                         "benchmark from a checkout of the repository")
    os.environ["FEATAGG_BACKEND"] = "numpy"
    # One BLAS thread: the load stays in this one thread of one process, and
    # BLAS worker threads waking on 2 shared cores only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import featagg  # noqa: F401  (timed: part of set-up)
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    def __init__(self, args, workdir):
        import workloads

        self.w = workloads
        self.args = args
        self.workdir = workdir
        self.shape = workloads.SHAPES[args.workload][args.shape]
        self.stages = Stages()
        self.pinned = None
        if args.shape == "full" and args.seed == workloads.PINNED_SEED:
            self.pinned = workloads.PINNED.get(args.workload)
        self.digests = None
        self.layer_results: list[dict] = []
        self.cpu_times: list[float] = []
        self.setup_times: list[float] = []

    def setup(self, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            self.datasets = None
            t0 = time.perf_counter()
            self.datasets = self.w.generate(self.shape, self.args.seed)
            self.paths = self.w.write_inputs(self.datasets, self.workdir)
            times.append(time.perf_counter() - t0)
        self.setup_times = times
        self.nnz = sum(ds.features.nnz for ds in self.datasets)
        return statistics.median(times)

    def one_pass(self):
        """Run and check one pass; returns (seconds, pass context, outputs)."""
        p = self.w.Pass(self.stages, self.paths, self.workdir, self.args.seed)
        gc.collect()  # start every pass without the previous pass's garbage
        t0, c0 = time.perf_counter(), time.process_time()
        out = self.w.PIPELINES[self.args.workload](p)
        elapsed = time.perf_counter() - t0
        self.cpu_times.append(time.process_time() - c0)
        digests = self.w.check_pass(self.stages, out, self.pinned)
        if self.digests is None:
            self.digests = digests
        for kind, value in digests.items():
            self.stages.check(f"tree.{kind}_s", value == self.digests[kind],
                              f"{kind} partition changed between passes")
        self.stages.passes += 1
        return elapsed, p, out

    def passes(self, seconds: float, min_passes: int, layers=None):
        """Passes until both limits are met; returns the pass times.

        With ``layers`` set, passes are traced and ``layers(seconds, pass,
        outputs, tracer)`` turns each into its per-layer metrics, collected in
        ``self.layer_results``. No pass's outputs are kept, so memory does
        not grow with the number of passes.
        """
        times = []
        start = time.perf_counter()
        while len(times) < min_passes or time.perf_counter() - start < seconds:
            times.append(self.one_pass()[0] if layers is None
                         else self.traced_pass(layers))
        return times

    def traced_pass(self, layers) -> float:
        tracer = self.stages.tracer = Tracer()
        try:
            with tracer.installed():
                elapsed, p, out = self.one_pass()
        finally:
            self.stages.tracer = None
        self.layer_results.append(layers(elapsed, p, out, tracer))
        return elapsed


def per_layer(elapsed, p, out, tracer) -> dict:
    # 0 where a workload does not run a layer; missing where featagg no
    # longer has the function whose wrapper measures the metric
    m = {name: 0.0 for name in PER_LAYER if not from_wrapper(name)}
    m.update(tracer.summary(elapsed))
    m.update(p.counters)
    if m["dataio.parse_s"] > 0:
        m["dataio.parse_mb_per_s"] = m["dataio.bytes_in"] / m["dataio.parse_s"] / 1e6
    if m.get("agglomerate.nnz_in"):
        m["agglomerate.nnz_ratio"] = m["agglomerate.nnz_out"] / m["agglomerate.nnz_in"]
    if "linear.sgd_steps" in m:
        m["linear.sgd_steps_per_s"] = (m["linear.sgd_steps"] / m["linear.train_s"]
                                       if m["linear.train_s"] > 0 else 0.0)
    if "cooc" in out:
        m["cooc.stored_entries"] = out["cooc"].stored_entries()
    q = out["quality"]
    m["cluster_quality.lmi_kmeans"] = q.get("lmi_kmeans", 0.0)
    m["cluster_quality.lmi_ndcg"] = q.get("lmi_ndcg", 0.0)
    m["xcmetrics.p_at_1"] = q.get("p_at_1", 0.0)
    m["xcmetrics.psp_at_5"] = q.get("psp_at_5", 0.0)
    m["xcmetrics.coverage_at_5"] = q.get("coverage_at_5", 0.0)
    m["cooc.impute_gain_pp"] = q.get("impute_gain_pp", 0.0)
    return {k: v for k, v in m.items() if k in PER_LAYER}


def median_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def environment(args, shape) -> dict:
    import featagg
    import numpy

    return {
        "backend": featagg.backend_name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "shape": shape,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_featagg()
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass


def measure(args, import_s: float, workdir: str) -> int:
    r = Runner(args, workdir)
    report = {"environment": environment(args, r.shape)}
    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace == 0:
            metrics["setup_s"] = import_s + r.setup(SETUP_REPEATS)
            r.passes(0.0, 1)  # warm-up, checked but not timed
            times = r.passes(args.seconds, MIN_PASSES)
            metrics["pipeline_s"] = statistics.median(times)
            metrics["nnz_per_s"] = r.nnz / metrics["pipeline_s"]
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            r.setup(1)
            r.passes(0.0, 1)
            times = r.passes(args.seconds / 2, 2)
            traced = r.passes(args.seconds / 2, 1, layers=per_layer)
            report["traced_pass_s"] = traced
            metrics = median_metrics(r.layer_results)
            metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(times)
            metrics["failed_ops_frac"] = r.stages.failed / r.stages.attempted
    except StageFailed:
        times = []
    correct = r.stages.failed == 0
    report["import_s"] = import_s
    report["setup_rounds_s"] = r.setup_times
    report["pass_s"] = times
    report["pass_cpu_s"] = r.cpu_times[-len(times):] if times else []
    if times:
        q1, q3 = quartiles(times)
        report["pass_s_summary"] = {"n": len(times), "median": statistics.median(times),
                                    "q1": q1, "q3": q3, "min": min(times),
                                    "max": max(times)}
    report["digests"] = r.digests
    report["failures"] = r.stages.failures
    report["attempted"] = r.stages.attempted
    report["failed"] = r.stages.failed
    report["failed_ops_frac"] = r.stages.failed / max(r.stages.attempted, 1)
    result = {
        "correct": correct,
        "attempted": r.stages.attempted,
        "failed": r.stages.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    report["metrics"] = result["metrics"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    for failure in r.stages.failures:
        print(f"FAILED {failure}")
    env = report["environment"]
    print(f"# {env['workload']} seed={env['seed']} backend={env['backend']} "
          f"numpy={env['numpy']} python={env['python']} nproc={env['nproc']} "
          f"shape={json.dumps(env['shape'])}")
    if times:
        s = report["pass_s_summary"]
        print(f"# {s['n']} passes: median {s['median']:.4f} s, "
              f"quartiles {s['q1']:.4f}-{s['q3']:.4f} s")
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
