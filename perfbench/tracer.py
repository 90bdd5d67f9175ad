"""Spans around calls into the program's layers, recorded from outside.

:func:`install` replaces each layer's public function with a timing
wrapper at the module attribute its caller resolves (for example
``repro.search.evaluator.schedule_makespans_batch``, which the search
evaluator looks up in its own module).  The program is not edited.

A span is ``[name, start, end, parent, n]``: ``parent`` is the index of
the enclosing span in the same process (-1 for none) and ``n`` a work
count taken from the call (designs, partitions, bytes, ...).  A span's
self time is its duration minus the durations of its direct children.

Spans stay in memory.  In a child process started with
:data:`SPANS_ENV` set, each finished root span and everything under it
is appended as one JSON line to ``<dir>/<pid>.jsonl``, so a child that
is killed loses at most the plan it was running.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

#: Directory that child processes append their spans to.
SPANS_ENV = "PERFBENCH_SPANS_DIR"

#: Spans that stand for one whole plan (the accounting roots).
ROOTS = ("plan", "cli.main", "serve.execute")


def _len_arg(index: int) -> Callable[..., float]:
    def count(args: tuple, kwargs: dict, result: Any) -> float:
        return float(len(args[index]))

    return count


def _len_result(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result))


def _is_hit(args: tuple, kwargs: dict, result: Any) -> float:
    return 0.0 if result is None else 1.0


def _partitions(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result.partitions_evaluated)


def _violations(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result.violations))


#: (span name, module, attribute, work count).  ``Class.method``
#: attributes are wrapped on the class.
WRAP_POINTS: tuple[tuple[str, str, str, Callable[..., float] | None], ...] = (
    ("cli.main", "repro.cli", "main", None),
    ("serve.execute", "repro.serve.worker", "execute_plan", None),
    ("explore.analyze", "repro.pipeline.config", "analyze_soc_cores", None),
    ("explore.cache_load", "repro.explore.cache", "AnalysisDiskCache.load", _is_hit),
    ("explore.cache_store", "repro.explore.cache", "AnalysisDiskCache.store", None),
    ("wrapper", "repro.explore.dse", "design_wrappers_batch", _len_arg(1)),
    ("compression.exact", "repro.explore.dse", "exact_codeword_totals", _len_arg(1)),
    (
        "compression.estimate",
        "repro.explore.dse",
        "estimate_codewords_batch",
        _len_arg(1),
    ),
    ("compression.cubes", "repro.explore.dse", "generate_cubes", None),
    ("compression.cubes", "repro.explore.dse", "symbol_table", None),
    ("search", "repro.pipeline.stages", "run_search", _partitions),
    (
        "scheduler.batch",
        "repro.search.evaluator",
        "schedule_makespans_batch",
        _len_arg(1),
    ),
    ("scheduler.build", "repro.pipeline.stages", "build_architecture", None),
    ("timeline", "repro.core.timeline", "schedule_constrained", None),
    ("pack.rects", "repro.pack.stages", "core_rectangles", None),
    ("pack.pack", "repro.pack.stages", "pack_rectangles", None),
    ("verify", "repro.verify", "verify_plan", _violations),
    ("reporting.serialize", "repro.reporting.export", "result_to_json", _len_result),
    ("reporting.serialize", "repro.reporting.export", "result_from_json", _len_arg(0)),
)


class Tracer:
    """Records spans for the functions it wraps, in one process."""

    def __init__(self, sink_dir: str | None = None) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._sink_dir = sink_dir
        self._wrapped: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        """Record a span around a block; yields it so a caller can set ``n``.

        When the outermost open span closes and the tracer has a sink,
        every finished span is flushed there.
        """
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if not self._stack and self._sink_dir is not None:
                self._flush()

    def wrap(
        self,
        name: str,
        owner: Any,
        attr: str,
        count: Callable[..., float] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a version that records ``name`` spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if count is not None:
                    span[4] = count(args, kwargs, result)
                return result

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._wrapped):
            setattr(owner, attr, original)
        self._wrapped.clear()

    def _flush(self) -> None:
        path = os.path.join(self._sink_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans.clear()


def install(sink_dir: str | None = None) -> Tracer:
    """Wrap every layer entry point of :data:`WRAP_POINTS`."""
    tracer = Tracer(sink_dir)
    for name, module_name, attr, count in WRAP_POINTS:
        owner: Any = importlib.import_module(module_name)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.wrap(name, owner, leaf, count)
    return tracer


def read_sink(sink_dir: str) -> list[list[list[Any]]]:
    """Span lists from every process that flushed into ``sink_dir``."""
    groups = []
    for entry in sorted(os.listdir(sink_dir)):
        if entry.endswith(".jsonl"):
            with open(os.path.join(sink_dir, entry), encoding="utf-8") as handle:
                groups += [json.loads(line) for line in handle if line.strip()]
    return groups


class LayerTotals:
    """Self time, calls and work counts per span name, over many span lists."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)
        #: Summed durations of root spans, and everything under them.
        self.root_wall_s = 0.0
        self.under_roots_self_s = 0.0
        #: Analysis-cache lookups and hits, leaving out the merge read
        #: that ``AnalysisDiskCache.store`` makes.
        self.cache_lookups = 0
        self.cache_hits = 0.0
        self.problems: list[str] = []

    def add(self, spans: Iterable[list[Any]]) -> None:
        spans = list(spans)
        child_time = [0.0] * len(spans)
        for index, (name, start, end, parent, _) in enumerate(spans):
            if end < start:
                self.problems.append(f"{name}: span ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                if start < p_start or end > p_end:
                    self.problems.append(f"{name}: span leaves its parent")
                child_time[parent] += end - start
        for index, (name, start, end, parent, n) in enumerate(spans):
            own = (end - start) - child_time[index]
            if own < -1e-6:
                self.problems.append(f"{name}: negative self time {own:.3g}")
            self.self_s[name] += own
            self.total_s[name] += end - start
            self.calls[name] += 1
            self.work[name] += n
            if name == "explore.cache_load" and (
                parent < 0 or spans[parent][0] != "explore.cache_store"
            ):
                self.cache_lookups += 1
                self.cache_hits += n
            root = index
            while spans[root][3] >= 0:
                root = spans[root][3]
            if spans[root][0] in ROOTS:
                self.under_roots_self_s += own
                if root == index:
                    self.root_wall_s += end - start

    def accounting_ok(self) -> bool:
        """Self times under the plan roots sum to the roots' wall time."""
        gap = abs(self.under_roots_self_s - self.root_wall_s)
        return not self.problems and gap <= 1e-6 * max(1.0, self.root_wall_s)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        s, calls, work = self.self_s, self.calls, self.work
        batch_s = self.total_s["scheduler.batch"]
        lookups = self.cache_lookups
        timeline_calls = calls["timeline"]
        return {
            "wrapper.busy_s": (s["wrapper"], "s"),
            "wrapper.calls": (calls["wrapper"], "count"),
            "wrapper.designs": (work["wrapper"], "count"),
            "compression.exact_busy_s": (s["compression.exact"], "s"),
            "compression.exact_designs": (work["compression.exact"], "count"),
            "compression.estimate_busy_s": (s["compression.estimate"], "s"),
            "compression.estimate_designs": (work["compression.estimate"], "count"),
            "compression.cubes_busy_s": (s["compression.cubes"], "s"),
            "explore.analyze_self_s": (s["explore.analyze"], "s"),
            "explore.cache_load_s": (s["explore.cache_load"], "s"),
            "explore.cache_store_s": (s["explore.cache_store"], "s"),
            "explore.cache_hit_ratio": (
                self.cache_hits / lookups if lookups else 0.0,
                "ratio",
            ),
            "search.busy_s": (s["search"], "s"),
            "search.calls": (calls["search"], "count"),
            "search.partitions": (work["search"], "count"),
            "scheduler.batch_busy_s": (s["scheduler.batch"], "s"),
            "scheduler.batch_calls": (calls["scheduler.batch"], "count"),
            "scheduler.partitions_per_s": (
                work["scheduler.batch"] / batch_s if batch_s else 0.0,
                "1/s",
            ),
            "scheduler.build_busy_s": (s["scheduler.build"], "s"),
            "timeline.busy_s": (s["timeline"], "s"),
            "timeline.calls": (timeline_calls, "count"),
            "timeline.ms_per_call": (
                1e3 * s["timeline"] / timeline_calls if timeline_calls else 0.0,
                "ms",
            ),
            "pack.rects_busy_s": (s["pack.rects"], "s"),
            "pack.pack_busy_s": (s["pack.pack"], "s"),
            "pack.calls": (calls["pack.pack"], "count"),
            "pipeline.other_s": (sum(s[name] for name in ROOTS), "s"),
            "verify.busy_s": (s["verify"], "s"),
            "verify.violations": (work["verify"], "count"),
            "reporting.serialize_busy_s": (s["reporting.serialize"], "s"),
            "reporting.bytes": (work["reporting.serialize"], "bytes"),
        }
