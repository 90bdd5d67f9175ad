"""Always-on service telemetry: registry, rolling windows, health view.

The global :mod:`repro.obs` context is opt-in and process-wide -- right
for one-shot CLI runs, wrong as the *only* instrument store for a
long-lived service whose ``metrics``/``health`` ops must answer even
when nobody asked for tracing.  :class:`ServiceTelemetry` is the
service-owned middle layer:

* a private :class:`~repro.obs.metrics.MetricsRegistry` (counters,
  queue-depth gauge, latency histograms on the
  :data:`~repro.obs.metrics.LATENCY_BUCKETS` preset) that exists for
  the lifetime of the service, independent of the global switchboard;
* a :class:`~repro.obs.window.WindowRegistry` of sliding windows
  giving the rolling p50/p95/p99 the ``health`` op reports;
* the OpenMetrics rendering for the ``metrics`` op.

``enabled=False`` (``repro-soc serve --no-telemetry``) turns every
method into an early-out no-op, so the overhead gate in
``benchmarks/test_bench_serve.py`` can hold the disabled service to
its pre-telemetry throughput.  The authoritative plain-dict counters in
:class:`~repro.serve.service.PlanningService` are *not* part of this
layer -- the ``stats`` op stays correct with telemetry off, exactly as
it stayed correct with observability off before this layer existed.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.obs.expo import render_openmetrics
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.window import WindowRegistry

#: Rolling horizon of the health windows, seconds.
HEALTH_WINDOW_S = 60.0

#: Window names (also the health-op keys).
WINDOW_EXEC = "job_seconds"
WINDOW_TURNAROUND = "turnaround_seconds"

#: ``# HELP`` strings for the exposition (keyed by registry name).
METRIC_HELP: dict[str, str] = {
    "serve.jobs_submitted": "Plan requests accepted into the queue",
    "serve.jobs_completed": "Jobs finished with a verified plan",
    "serve.jobs_failed": "Jobs finished in a failure state",
    "serve.jobs_deduped": "Submissions coalesced onto in-flight jobs",
    "serve.jobs_rejected": "Submissions rejected with backpressure",
    "serve.jobs_retried": "Attempt re-executions after worker crashes",
    "serve.jobs_timed_out": "Jobs terminated at their deadline",
    "serve.jobs_cancelled": "Jobs cancelled before completion",
    "serve.jobs_restored": "Jobs restored from persisted queue state",
    "serve.workers_started": "Worker processes spawned, replacements included",
    "serve.queue_depth": "Jobs queued and waiting for a worker slot",
    "serve.requests": "Protocol requests handled, by outcome",
    "serve.job_seconds": "Worker execution latency per attempt chain",
    "serve.turnaround_seconds": "Submit-to-finish latency per job",
}


class ServiceTelemetry:
    """One service instance's live instrument set (cheap when off)."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.windows = WindowRegistry()
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Recording (every path early-outs when disabled).
    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.registry.inc(f"serve.{name}", amount)

    def set_queue_depth(self, depth: int) -> None:
        if self.enabled:
            self.registry.set_gauge("serve.queue_depth", float(depth))

    def observe_execution(self, seconds: float) -> None:
        """One job's worker execution latency (attempt chain wall)."""
        if not self.enabled:
            return
        self.registry.observe(
            f"serve.{WINDOW_EXEC}", seconds, LATENCY_BUCKETS
        )
        self.windows.window(WINDOW_EXEC, HEALTH_WINDOW_S).observe(seconds)

    def observe_turnaround(self, seconds: float) -> None:
        """One job's submit-to-terminal latency (queueing included)."""
        if not self.enabled:
            return
        self.registry.observe(
            f"serve.{WINDOW_TURNAROUND}", seconds, LATENCY_BUCKETS
        )
        self.windows.window(WINDOW_TURNAROUND, HEALTH_WINDOW_S).observe(
            seconds
        )

    def merge_worker_metrics(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker subprocess's registry snapshot in."""
        if self.enabled and snapshot:
            self.registry.merge(snapshot)

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def openmetrics(self) -> str:
        """The ``metrics`` op payload (empty-registry safe)."""
        return render_openmetrics(
            self.registry.snapshot(), prefix="repro", help_text=METRIC_HELP
        )

    def rolling(self) -> dict[str, dict[str, float]]:
        """Rolling latency summaries, keyed by window name."""
        return self.windows.summaries()


def health_view(
    *,
    telemetry: ServiceTelemetry,
    counters: Mapping[str, int],
    queue_depth: int,
    queue_capacity: int,
    running: int,
    workers: int,
    accepting: bool,
    dispatcher_alive: bool,
    uptime_s: float,
) -> dict[str, Any]:
    """The ``health`` op payload: liveness + rolling load picture.

    ``status`` is ``"ok"`` while the service accepts work and its
    dispatcher is alive, ``"draining"`` once shutdown began, and
    ``"degraded"`` when the dispatcher died while the service still
    claims to accept -- the one state that should page somebody.
    """
    if accepting and dispatcher_alive:
        status = "ok"
    elif not accepting:
        status = "draining"
    else:
        status = "degraded"
    submitted = int(counters.get("jobs_submitted", 0))
    failures = (
        int(counters.get("jobs_failed", 0))
        + int(counters.get("jobs_cancelled", 0))
    )
    return {
        "status": status,
        "uptime_s": round(uptime_s, 3),
        "accepting": accepting,
        "dispatcher_alive": dispatcher_alive,
        "telemetry": telemetry.enabled,
        "queue_depth": queue_depth,
        "queue_capacity": queue_capacity,
        "running": running,
        "workers": workers,
        "window_s": HEALTH_WINDOW_S,
        "rolling": telemetry.rolling() if telemetry.enabled else {},
        "error_budget": {
            "submitted": submitted,
            "completed": int(counters.get("jobs_completed", 0)),
            "failed": int(counters.get("jobs_failed", 0)),
            "cancelled": int(counters.get("jobs_cancelled", 0)),
            "timed_out": int(counters.get("jobs_timed_out", 0)),
            "rejected": int(counters.get("jobs_rejected", 0)),
            "invalid_plan": int(counters.get("jobs_invalid_plan", 0)),
            "failure_rate": round(failures / submitted, 6)
            if submitted
            else 0.0,
        },
    }


__all__ = [
    "HEALTH_WINDOW_S",
    "METRIC_HELP",
    "ServiceTelemetry",
    "health_view",
]
