"""``serve-closed``: a planning service under a closed loop of two connections.

``repro-soc serve --port 0 --jobs 1`` runs with a fresh
``REPRO_CACHE_DIR``; two client threads in this process each keep one
request in flight, submitting the next only when the previous result
has arrived.  Every request is a distinct (design, width) pair, so
dedup never fires.  Set-up is server start to its ready line; the
server is started three times and the median reported.  A pass shorter
than ``--seconds`` is followed by another against a fresh server.

A traced run serves one pass from a plain server and one from a server
started through ``traced_main.py``, whose attempt children record
spans.  The ``serve.*`` metrics come from the plain pass.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import tracer as tracing
from common import (
    PERFBENCH,
    PLAN_TIMEOUT_S,
    RunContext,
    end_to_end,
    fingerprint,
)
from layers import Outcome, traced_outcome
from workloads import Op

CLIENTS = 2
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    ready_s: float
    maxrss_mb: float = 0.0
    cpu_s: float = 0.0


def _start(ctx: RunContext, spans_dir: str | None = None) -> Server:
    env = ctx.child_env(REPRO_CACHE_DIR=ctx.fresh_dir("cache"))
    if spans_dir is None:
        entry = [sys.executable, "-m", "repro.cli"]
    else:
        entry = [sys.executable, str(PERFBENCH / "traced_main.py")]
        env[tracing.SPANS_ENV] = spans_dir
    began = time.perf_counter()
    proc = subprocess.Popen(
        entry + ["serve", "--port", "0", "--jobs", "1"],
        cwd=str(PERFBENCH.parent),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    timer = threading.Timer(READY_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event.get("event") == "ready":
                ready_s = time.perf_counter() - began
                return Server(proc, event["host"], int(event["port"]), ready_s)
    finally:
        timer.cancel()
    _stop(Server(proc, "", 0, 0.0))
    raise RuntimeError("server exited before its ready line")


def _stop(server: Server) -> None:
    """SIGTERM, wait (killing after a deadline) and collect the tree's usage."""
    proc = server.proc
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(STOP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        server.maxrss_mb = usage.ru_maxrss / 1024.0
        server.cpu_s = usage.ru_utime + usage.ru_stime
    proc.stdout.close()


@dataclass
class Served:
    """One request as the client and the service saw it."""

    op: Op
    latency_s: float = 0.0
    submit_rpc_s: float = 0.0
    received_at: float = 0.0
    status: dict = field(default_factory=dict)
    result: dict | None = None
    deduped: bool = False
    rejected: bool = False
    error: str = ""


def _client_loop(server: Server, ops: list[Op], served: list[Served], claim) -> None:
    """One connection's closed loop: submit, wait for the result, repeat."""
    from repro.pipeline import RunConfig
    from repro.serve.client import ServiceClient
    from repro.serve.errors import BackpressureError

    with ServiceClient(server.host, server.port) as client:
        while (index := claim()) < len(ops):
            record = served[index]
            began = time.perf_counter()
            try:
                ticket = client.submit(
                    record.op.design.name,
                    record.op.width,
                    RunConfig(),
                    timeout_s=PLAN_TIMEOUT_S,
                )
                record.submit_rpc_s = time.perf_counter() - began
                record.deduped = ticket.deduped
                result = client.result(ticket.job_id, timeout_s=PLAN_TIMEOUT_S)
                record.latency_s = time.perf_counter() - began
                record.received_at = time.time()
                record.status = client.status(ticket.job_id)
                record.result = result
            except BackpressureError as error:
                record.rejected = True
                record.error = f"rejected: {error}"
            except Exception as error:  # noqa: BLE001 - counted as a failed request
                record.error = f"{type(error).__name__}: {error}"
                client.close()


def _pass(
    ctx: RunContext, ops: list[Op], spans_dir: str | None = None
) -> tuple[list[Served], float, Server]:
    """Serve every op once from a fresh server: ``(records, wall, server)``."""
    server = _start(ctx, spans_dir)
    served = [Served(op) for op in ops]
    counter = itertools.count()
    lock = threading.Lock()

    def claim() -> int:
        with lock:
            return next(counter)

    try:
        threads = [
            threading.Thread(target=_client_loop, args=(server, ops, served, claim))
            for _ in range(CLIENTS)
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
    finally:
        _stop(server)
    return served, wall, server


def _references(records: list[Served]) -> dict[tuple[str, int], Any]:
    """Each served request planned again in this process."""
    import repro.pipeline
    from repro.pipeline import RunConfig
    from repro.soc.industrial import load_design

    config = RunConfig(jobs=2)
    plans: dict[tuple[str, int], Any] = {}
    for record in records:
        key = (record.op.design.name, record.op.width)
        if key not in plans:
            plans[key] = repro.pipeline.plan(load_design(key[0]), key[1], config)
    return plans


def _check(
    records: list[Served], references: dict[tuple[str, int], Any]
) -> tuple[int, list[Any]]:
    """Re-prove each served plan and compare it with its in-process twin.

    Returns the failure count and the served plans (``None`` for failures).
    """
    import repro.verify
    from repro.pipeline import RunConfig
    from repro.reporting.export import result_from_dict
    from repro.soc.industrial import load_design

    failed = 0
    plans: list[Any] = []
    for record in records:
        plans.append(None)
        if record.result is None or record.deduped:
            print(
                f"# {record.op.design.name} W={record.op.width}: "
                f"{'deduped' if record.deduped else record.error}",
                file=sys.stderr,
            )
            failed += 1
            continue
        key = (record.op.design.name, record.op.width)
        result = result_from_dict(record.result)
        report = repro.verify.verify_plan(
            result, load_design(key[0]), config=RunConfig()
        )
        if not report.ok or fingerprint(result) != fingerprint(references[key]):
            failed += 1
            continue
        plans[-1] = result
    return failed, plans


def _serve_metrics(records: list[Served]) -> dict[str, float]:
    done = [r for r in records if r.result is not None]
    status = [r.status for r in done]

    def p50(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    attempt = [s["finished_at"] - s["started_at"] for s in status]
    plan = [r.result["optimizer"]["cpu_seconds"] for r in done]
    return {
        "serve.submit_rpc_s.p50": p50([r.submit_rpc_s for r in done]),
        "serve.queue_wait_s.p50": p50(
            [s["started_at"] - s["submitted_at"] for s in status]
        ),
        "serve.attempt_s.p50": p50(attempt),
        "serve.plan_s.p50": p50(plan),
        "serve.attempt_overhead_s.p50": p50([a - p for a, p in zip(attempt, plan)]),
        "serve.fetch_s.p50": p50(
            [r.received_at - s["finished_at"] for r, s in zip(done, status)]
        ),
        "serve.attempts_per_job": (
            statistics.fmean(s["attempts"] for s in status) if status else 0.0
        ),
        "serve.deduped": float(sum(r.deduped for r in records)),
        "serve.rejected": float(sum(r.rejected for r in records)),
    }


def run(ctx: RunContext, ops: list[Op]) -> Outcome:
    if ctx.trace:
        plain, plain_wall, plain_server = _pass(ctx, ops)
        spans_dir = ctx.fresh_dir("spans")
        traced, traced_wall, _ = _pass(ctx, ops, spans_dir)
        references = _references(plain)
        checker = tracing.install()
        failed, _ = _check(plain + traced, references)
        checker.uninstall()
        return traced_outcome(
            ctx,
            tracing.read_sink(spans_dir) + [checker.spans],
            attempted=len(plain) + len(traced),
            failed=failed,
            overhead_ratio=traced_wall / plain_wall,
            child_cpu_s=plain_server.cpu_s / len(plain),
            serve=_serve_metrics(plain),
        )
    starts = []
    for _ in range(2):
        server = _start(ctx)
        _stop(server)
        starts.append(server.ready_s)
    records: list[Served] = []
    timed = 0.0
    peak = 0.0
    while not records or timed < ctx.seconds:
        batch, wall, server = _pass(ctx, ops)
        records += batch
        timed += wall
        starts.append(server.ready_s)
        peak = max(peak, server.maxrss_mb)
    failed, plans = _check(records, _references(records))
    first = [plan for plan in plans[: len(ops)] if plan is not None]
    ctx.notes.update(
        passes=len(records) // len(ops), plans=len(records), timed_s=round(timed, 3)
    )
    return Outcome(
        attempted=len(records),
        failed=failed,
        metrics=end_to_end(
            setup_s=statistics.median(starts),
            latencies=[r.latency_s for r in records if r.result is not None] or [0.0],
            plans_per_s=(len(records) - failed) / timed,
            verified_ratio=(len(records) - failed) / len(records),
            makespans=[plan.test_time for plan in first] or [1],
            volumes=[plan.test_data_volume for plan in first] or [1],
            peak_rss_mb=peak,
        ),
    )
