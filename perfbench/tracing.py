"""Spans and counters recorded from the benchmark's own files.

A pass runs every pipeline stage through ``Stages.run``. Untraced, that only
counts attempts and failures. Traced, it also records one span per stage call,
and ``Tracer.installed`` swaps wrappers onto the public kernel functions in
``featagg.kernels`` and the split functions ``featagg.tree`` calls, so each
kernel or split call becomes a child span of the stage that made it. The
wrappers are removed when the traced pass ends; featagg itself is not edited.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

KERNELS = (
    "row_dots",
    "sum_rows",
    "weighted_sum_rows",
    "transpose_csr",
    "agglomerate_csr",
    "cooc_accumulate",
    "ova_sgd",
    "score_rows",
    "mi_accumulate",
)
SPLITS = ("kmeans_split", "ndcg_split")
SPLIT_COUNTERS = ("splits.iterations", "splits.non_converged", "splits.fallbacks")


def from_wrapper(metric: str) -> bool:
    """True for metrics only a kernel or split wrapper can measure."""
    return metric.startswith(("kernels.", "splits.", "linear.sgd_steps"))


class StageFailed(Exception):
    """A stage raised; the pass cannot continue without its output."""


class Tracer:
    """In-memory span log: (name, kind, parent id, root stage name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[str, str, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.wrapped: set[str] = set()

    def _open(self, name: str, kind: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][0] if self._stack else name
        self.spans.append((name, kind, parent, root, time.perf_counter(), 0.0))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        name, kind, parent, root, t0, _ = self.spans[sid]
        self.spans[sid] = (name, kind, parent, root, t0, time.perf_counter())
        self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str):
        sid = self._open(name, kind)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap_kernel(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name, "kernel")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if name == "ova_sgd":
                    # args[4] is the sample order: one SGD step per entry
                    self.counters["linear.sgd_steps"] += len(args[4])

        return traced

    def _wrap_split(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name, "split")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counters["splits.iterations"] += result.iterations
            self.counters["splits.non_converged"] += not result.converged
            self.counters["splits.fallbacks"] += result.iterations == 0
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every kernel and split function that featagg still defines.

        A function featagg no longer has gets no wrapper, so its metrics are
        missing from the report instead of reading zero.
        """
        from featagg import kernels, tree

        saved = []
        for module, names, wrap in ((kernels, KERNELS, self._wrap_kernel),
                                    (tree, SPLITS, self._wrap_split)):
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                saved.append((module, name, fn))
                setattr(module, name, wrap(name, fn))
        self.wrapped = {name for _, name, _ in saved}
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def summary(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass.

        Stage metrics are the summed span durations per stage name; a stage's
        self time is that minus the kernel spans nested inside it. Coverage
        compares the top-level stage spans with the whole pass.
        """
        out: dict[str, float] = defaultdict(float)
        kernel_in_stage: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for name, kind, parent, root, t0, t1 in self.spans:
            dur = t1 - t0
            if kind == "stage":
                out[name] += dur
                if parent == -1:
                    top_level += dur
            elif kind == "kernel":
                out[f"kernels.{name}.s"] += dur
                out[f"kernels.{name}.calls"] += 1
                kernel_in_stage[root] += dur
        for name in {n for n, kind, *_ in self.spans if kind == "stage"}:
            out[self_name(name)] = out[name] - kernel_in_stage[name]
        for name in self.wrapped & set(KERNELS):
            out[f"kernels.{name}.s"] += 0.0
            out[f"kernels.{name}.calls"] += 0
        if self.wrapped & set(SPLITS):
            for name in SPLIT_COUNTERS:
                out[name] += 0
        if "ova_sgd" in self.wrapped:
            out["linear.sgd_steps"] += 0
        out.update(self.counters)
        out["stages.uncovered_s"] = pass_s - top_level
        out["stages.covered_frac"] = top_level / pass_s
        return dict(out)


def self_name(stage_metric: str) -> str:
    """'tree.kmeans_s' -> 'tree.kmeans_self_s'; 'agglomerate.s' -> 'agglomerate.self_s'."""
    return stage_metric[:-1] + "self_s" if stage_metric.endswith(".s") \
        else stage_metric[:-2] + "_self_s"


class Stages:
    """Runs the stages of a pass and keeps the op counts of a whole run.

    Every stage call is one attempted op. It fails if it raises or if an
    output check made on its result by ``check`` is false; a stage that runs
    twice in one pass and fails a check counts as one failed call.
    """

    def __init__(self):
        self.attempted = 0
        self.passes = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self._failed: set[tuple[int, str]] = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    def run(self, metric: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(metric, "stage"):
                return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(metric, f"raised {type(exc).__name__}: {exc}")
            raise StageFailed(metric) from exc

    def check(self, metric: str, ok: bool, what: str) -> None:
        """Output check on a stage's result in the current pass."""
        if not ok:
            self._fail(metric, what)

    def _fail(self, metric: str, what: str) -> None:
        self._failed.add((self.passes, metric))
        self.failures.append(f"pass {self.passes}: {metric}: {what}")
