"""What a run hands back, and the per-layer metric set of a traced run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from common import RunContext, process_probes
from tracer import LayerTotals

#: Client-side serve metrics; zero on workloads that run no server.
SERVE_METRICS = (
    ("serve.submit_rpc_s.p50", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.attempt_s.p50", "s"),
    ("serve.plan_s.p50", "s"),
    ("serve.attempt_overhead_s.p50", "s"),
    ("serve.fetch_s.p50", "s"),
    ("serve.attempts_per_job", "count"),
    ("serve.deduped", "count"),
    ("serve.rejected", "count"),
)


@dataclass
class Outcome:
    """A finished run: op counts and the metrics it reports."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    #: Whether the traced run's layer self times add up to the plan wall
    #: (``None`` for untraced runs).
    accounting_ok: bool | None = None


def traced_outcome(
    ctx: RunContext,
    groups: list[list[Any]],
    *,
    attempted: int,
    failed: int,
    overhead_ratio: float,
    child_cpu_s: float = 0.0,
    serve: dict[str, float] | None = None,
) -> Outcome:
    """A traced run's outcome: every per-layer metric, from span lists.

    ``groups`` holds one span list per process (or per flushed plan).
    The metric set is the same for all workloads; layers a workload does
    not reach read 0.  The spans are kept for the run's span file.
    """
    totals = LayerTotals()
    for spans in groups:
        totals.add(spans)
    ctx.notes["spans"] = groups
    metrics = dict(process_probes(ctx))
    metrics["process.child_cpu_s"] = (child_cpu_s, "s")
    metrics.update(totals.layer_metrics())
    for name, unit in SERVE_METRICS:
        metrics[name] = ((serve or {}).get(name, 0.0), unit)
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return Outcome(attempted, failed, metrics, totals.accounting_ok())
