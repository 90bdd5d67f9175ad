"""``warm-sweep`` and ``constrained``: plans made inside the benchmark process.

Set-up imports the program, builds every design's analysis tables into
a fresh cache directory (two worker processes) and runs one untimed
pass over the op list, so lazy caches are full before timing starts.
The timed section then repeats whole passes until ``--seconds`` have
elapsed.  A traced run times one untraced and one traced pass instead.
"""

from __future__ import annotations

import contextlib
import resource
import time
from typing import Any

import tracer as tracing
from common import RunContext, end_to_end, fingerprint
from layers import Outcome, traced_outcome
from workloads import Op, precedence_pairs


def _load(design: Any) -> Any:
    from repro.soc.industrial import load_design
    from repro.soc.synthetic import synthetic_soc

    if design.synthetic:
        return synthetic_soc(design.cores, seed=design.seed)
    return load_design(design.name)


def _config(op: Op, soc: Any, base: Any) -> Any:
    if op.kind == "greedy":
        return base.replace(strategy="greedy")
    if op.kind == "packing":
        return base.replace(architecture="packing", schedule="packing")
    if op.kind == "constrained":
        from repro.power.model import power_table

        largest = max(power_table(soc, compression=True).values())
        precedence = (
            precedence_pairs(list(soc.core_names), op.precedence_seed)
            if op.precedence_seed is not None
            else ()
        )
        return base.replace(
            power_budget=op.budget_factor * largest, precedence=precedence
        )
    return base


Job = tuple[Op, Any, Any]  # (op, soc, RunConfig)


def _pass(jobs: list[Job], tracer: Any = None) -> tuple[list[tuple[float, Any]], float]:
    """Plan every job once: ``([(latency, result or exception)], wall)``."""
    import repro.pipeline

    results = []
    began = time.perf_counter()
    for op, soc, config in jobs:
        start = time.perf_counter()
        try:
            with tracer.span("plan") if tracer else contextlib.nullcontext():
                outcome = repro.pipeline.plan(soc, op.width, config)
        except Exception as error:  # noqa: BLE001 - a failed plan is counted
            outcome = error
        results.append((time.perf_counter() - start, outcome))
    return results, time.perf_counter() - began


def _setup(ctx: RunContext, ops: list[Op]) -> tuple[list[Job], float]:
    began = time.perf_counter()
    from repro.pipeline import RunConfig

    base = RunConfig(cache_dir=ctx.fresh_dir("cache"))
    socs: dict[Any, Any] = {}
    widest: dict[Any, int] = {}
    for op in ops:
        if op.design not in socs:
            socs[op.design] = _load(op.design)
        widest[op.design] = max(widest.get(op.design, 0), op.width)
    # A fixed design order: designs share cores, and which of them are
    # still pending (and so where they are analysed) follows the order.
    setup_config = base.replace(jobs=2)
    for design in sorted(socs, key=lambda d: (d.synthetic, d.name)):
        setup_config.analyses(socs[design].cores, max_tam_width=widest[design])
    jobs = [(op, socs[op.design], _config(op, socs[op.design], base)) for op in ops]
    _pass(jobs)  # the untimed warm-up pass
    return jobs, time.perf_counter() - began


def _check(jobs: list[Job], passes: list[list[tuple[float, Any]]]) -> int:
    """Re-prove every plan; later passes must repeat the first bit for bit."""
    import repro.verify

    failed = 0
    first = [outcome for _, outcome in passes[0]]
    for results in passes:
        for (op, soc, config), (_, outcome), reference in zip(jobs, results, first):
            if isinstance(outcome, Exception):
                failed += 1
                continue
            report = repro.verify.verify_plan(outcome, soc, config=config)
            if not report.ok or (
                isinstance(reference, Exception)
                or fingerprint(outcome) != fingerprint(reference)
            ):
                failed += 1
    return failed


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(ctx: RunContext, ops: list[Op]) -> Outcome:
    jobs, setup_s = _setup(ctx, ops)
    if ctx.trace:
        untraced, plain_wall = _pass(jobs)
        spans = tracing.install()
        traced, traced_wall = _pass(jobs, spans)
        failed = _check(jobs, [untraced, traced])
        spans.uninstall()
        return traced_outcome(
            ctx,
            [spans.spans],
            attempted=2 * len(jobs),
            failed=failed,
            overhead_ratio=traced_wall / plain_wall,
        )
    passes: list[list[tuple[float, Any]]] = []
    timed = 0.0
    while not passes or timed < ctx.seconds:
        results, wall = _pass(jobs)
        passes.append(results)
        timed += wall
    peak = _peak_rss_mb()
    failed = _check(jobs, passes)
    attempted = len(jobs) * len(passes)
    first = [outcome for _, outcome in passes[0] if not isinstance(outcome, Exception)]
    ctx.notes.update(passes=len(passes), plans=attempted, timed_s=round(timed, 3))
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics=end_to_end(
            setup_s=setup_s,
            latencies=[latency for results in passes for latency, _ in results],
            plans_per_s=(attempted - failed) / timed,
            verified_ratio=(attempted - failed) / attempted,
            makespans=[result.test_time for result in first] or [1],
            volumes=[result.test_data_volume for result in first] or [1],
            peak_rss_mb=peak,
        ),
    )
