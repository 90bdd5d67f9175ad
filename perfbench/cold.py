"""``cold-cli``: one fresh ``repro-soc export`` process per plan, run serially.

Each pass plans the op list into its own fresh analysis-cache directory,
so the first plan of a design pays for its analysis and later widths of
that design read the disk cache, as they would for a user.  Set-up
byte-compiles the program and starts one throwaway CLI process (three
times; the median is reported).

A traced run times one pass of plain CLI processes and one pass of
``traced_main.py`` processes, which run the same CLI with the layer
tracer installed.
"""

from __future__ import annotations

import compileall
import os
import statistics
import sys
import time
from typing import Any

import tracer as tracing
from common import (
    PERFBENCH,
    SRC,
    ChildRun,
    RunContext,
    end_to_end,
    fingerprint,
    run_child,
)
from layers import Outcome, traced_outcome
from workloads import Op

Record = tuple[Op, ChildRun, str]  # (op, child, path of the exported plan)


def _setup_once(ctx: RunContext) -> float:
    began = time.perf_counter()
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    run_child([sys.executable, "-m", "repro.cli", "--help"], ctx.child_env())
    return time.perf_counter() - began


def _pass(
    ctx: RunContext, ops: list[Op], spans_dir: str | None = None
) -> tuple[list[Record], float]:
    """Plan every op in a fresh CLI process: ``(records, wall)``."""
    cache = ctx.fresh_dir("cache")
    out_dir = ctx.fresh_dir("plans")
    if spans_dir is None:
        entry = [sys.executable, "-m", "repro.cli"]
        env = ctx.child_env()
    else:
        entry = [sys.executable, str(PERFBENCH / "traced_main.py")]
        env = ctx.child_env(**{tracing.SPANS_ENV: spans_dir})
    records = []
    began = time.perf_counter()
    for index, op in enumerate(ops):
        out = os.path.join(out_dir, f"{index}.json")
        argv = entry + [
            "export",
            op.design.name,
            "--width",
            str(op.width),
            "--compression",
            "per-core",
            "--cache-dir",
            cache,
            "--out",
            out,
        ]
        records.append((op, run_child(argv, env), out))
    return records, time.perf_counter() - began


def _reference_plans(ops: list[Op], ctx: RunContext) -> dict[tuple[str, int], Any]:
    """The same requests planned in this process, from a separate cache."""
    import repro.pipeline
    from repro.pipeline import RunConfig
    from repro.soc.industrial import load_design

    config = RunConfig(
        compression="per-core", cache_dir=ctx.fresh_dir("check"), jobs=2
    )
    plans = {}
    for op in ops:
        key = (op.design.name, op.width)
        if key not in plans:
            plans[key] = repro.pipeline.plan(load_design(key[0]), key[1], config)
    return plans


def _check(
    records: list[Record], references: dict[tuple[str, int], Any]
) -> tuple[int, list[Any]]:
    """Reload each exported plan, re-prove it and compare it with the reference.

    Returns the failure count and the reloaded plans (``None`` where the
    export is missing).
    """
    import repro.reporting.export
    import repro.verify
    from repro.pipeline import RunConfig
    from repro.soc.industrial import load_design

    config = RunConfig(compression="per-core")
    failed = 0
    results: list[Any] = []
    for op, child, out in records:
        results.append(None)
        if child.returncode != 0:
            print(
                f"# {op.design.name} W={op.width} exited {child.returncode}: "
                f"{child.stderr.strip()[-300:]}",
                file=sys.stderr,
            )
            failed += 1
            continue
        try:
            with open(out, encoding="utf-8") as handle:
                result = repro.reporting.export.result_from_json(handle.read())
        except (OSError, ValueError, KeyError) as error:
            print(
                f"# {op.design.name} W={op.width}: unreadable plan: {error}",
                file=sys.stderr,
            )
            failed += 1
            continue
        results[-1] = result
        report = repro.verify.verify_plan(
            result, load_design(op.design.name), config=config
        )
        reference = references[(op.design.name, op.width)]
        if not report.ok or fingerprint(result) != fingerprint(reference):
            failed += 1
    return failed, results


def run(ctx: RunContext, ops: list[Op]) -> Outcome:
    setup_s = statistics.median(_setup_once(ctx) for _ in range(3))
    if ctx.trace:
        plain, plain_wall = _pass(ctx, ops)
        spans_dir = ctx.fresh_dir("spans")
        traced, traced_wall = _pass(ctx, ops, spans_dir)
        references = _reference_plans(ops, ctx)
        checker = tracing.install()
        failed, _ = _check(plain + traced, references)
        checker.uninstall()
        return traced_outcome(
            ctx,
            tracing.read_sink(spans_dir) + [checker.spans],
            attempted=len(plain) + len(traced),
            failed=failed,
            overhead_ratio=traced_wall / plain_wall,
            child_cpu_s=statistics.fmean(child.cpu_s for _, child, _ in plain),
        )
    records: list[Record] = []
    timed = 0.0
    passes = 0
    while not passes or timed < ctx.seconds:
        batch, wall = _pass(ctx, ops)
        records += batch
        timed += wall
        passes += 1
    peak = max(child.maxrss_mb for _, child, _ in records)
    failed, results = _check(records, _reference_plans(ops, ctx))
    first = [result for result in results[: len(ops)] if result is not None]
    ctx.notes.update(passes=passes, plans=len(records), timed_s=round(timed, 3))
    return Outcome(
        attempted=len(records),
        failed=failed,
        metrics=end_to_end(
            setup_s=setup_s,
            latencies=[child.wall_s for _, child, _ in records],
            plans_per_s=(len(records) - failed) / timed,
            verified_ratio=(len(records) - failed) / len(records),
            makespans=[result.test_time for result in first] or [1],
            volumes=[result.test_data_volume for result in first] or [1],
            peak_rss_mb=peak,
        ),
    )
