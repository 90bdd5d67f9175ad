"""Worker-side job execution: one warm process per worker slot.

Each worker slot of the service owns one long-lived ``multiprocessing``
child (``spawn`` context -- fork is unsafe under the service's threaded
asyncio loop) connected by a duplex pipe.  The child is started lazily
by the slot's first attempt, then reused from job to job, so only the
first attempt on a slot pays for interpreter start and imports.  After
every job the child drops its in-process memos
(:func:`reset_job_state`), so each job starts from a fresh child's
cache state; the disk analysis cache still serves repeat designs.

The slot keeps the three lifecycle guarantees a per-job child gave:

* **timeout** -- the parent polls the pipe with a deadline and
  *terminates* the child when it expires, so a runaway plan cannot
  wedge a worker slot;
* **cancellation** -- the parent polls a cancel flag between pipe
  polls and terminates the child on request;
* **crash detection** -- a child that dies without delivering a result
  (killed, OOM, ``os._exit``) is surfaced as :class:`WorkerCrashed`,
  the one failure the service retries with backoff.

After a timeout, a cancel, a crash or a pipe error the slot discards
its child; the next attempt spawns a replacement, and that attempt's
deadline covers the respawn.  :meth:`WorkerSlot.close` stops the child
with a sentinel, a bounded join, then ``terminate``.

``run_job_inline`` is the degraded fallback for platforms where
multiprocessing cannot spawn (restricted sandboxes) and the fast path
for tests: same contract minus preemptive timeout/kill (a thread cannot
be terminated), sharing the parent's in-process analysis memo.

The ``fault`` request field is the chaos hook the fault-injection tests
drive: ``{"sleep_s": 30}`` delays the worker (timeout tests),
``{"exit_on_attempts": [0]}`` hard-kills the child on the listed
attempt indices (crash/retry tests), ``{"corrupt_plan": "overlap"}``
tampers with the finished plan so the verification gate trips
(invalid-plan tests).  Normal clients never set it; it participates in
the dedup fingerprint so faulty requests cannot coalesce with clean
ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time
from typing import Any, Callable, Mapping

from repro.serve.errors import (
    InvalidPlan,
    JobCancelled,
    JobTimeout,
    WorkerCrashed,
    WorkerError,
)

#: Seconds between pipe polls; bounds cancel/timeout reaction latency.
POLL_INTERVAL_S = 0.05

#: Seconds :meth:`WorkerSlot.close` waits for a child to leave on its
#: own before terminating it.
CLOSE_GRACE_S = 5.0

#: Exit code the fault hook uses; distinctive in failure messages.
FAULT_EXIT_CODE = 43


def execute_plan(
    payload: Mapping[str, Any], *, strip_report: bool = False
) -> str:
    """Run one plan request to its ``result_to_json`` text.

    Pure apart from the planning engine's own caches: the payload is
    the :meth:`~repro.serve.protocol.PlanRequest.worker_payload` dict,
    the return value the lossless JSON the transport ships verbatim.

    Every result is re-checked by the independent invariant checker
    before it is serialized; a violation raises :class:`InvalidPlan`,
    so the service never replies with a plan it cannot prove
    consistent.  The ``corrupt_plan`` fault hook tampers with the plan
    between planning and verification, for testing that gate.

    ``strip_report=True`` drops the :class:`~repro.obs.report.RunReport`
    the pipeline attaches under an enabled observability context.  The
    telemetry-collecting subprocess path uses it so the wire result
    stays byte-identical with telemetry on or off (the report carries
    wall-clock timings; spans and metrics ship out of band instead).
    """
    import dataclasses

    from repro.pipeline import RunConfig
    from repro.pipeline import plan as run_plan
    from repro.reporting.export import result_to_json
    from repro.soc.industrial import load_design
    from repro.verify import corrupt_result, verify_plan
    from repro.verify.invariants import PlanVerificationError

    soc = load_design(str(payload["design"]))
    config = RunConfig.from_dict(payload.get("config") or {})
    try:
        result = run_plan(soc, int(payload["width"]), config)
    except PlanVerificationError as error:
        # A config.verify pipeline already failed its own gate.
        raise InvalidPlan(str(error)) from error
    corrupt = (payload.get("fault") or {}).get("corrupt_plan")
    if corrupt:
        result = corrupt_result(result, str(corrupt))
    report = verify_plan(result, soc, config=config)
    if not report.ok:
        raise InvalidPlan(report.summary())
    if strip_report and result.report is not None:
        result = dataclasses.replace(result, report=None)
    return result_to_json(result)


def reset_job_state() -> None:
    """Return a warm child to a fresh child's in-process cache state.

    Drops the analysis memo (not the disk cache), the wrapper-design
    memo and the partition list and matrix caches, then collects
    garbage.  Keeping them warm across designs raised the serving
    process tree's peak RSS from 111 MB to 166 MB on the benchmark's
    distinct-design load.
    """
    from repro.core.partition import partitions_list
    from repro.core.scheduler import partition_matrix
    from repro.explore.dse import clear_analysis_cache
    from repro.wrapper.design import clear_wrapper_design_cache

    clear_analysis_cache()
    clear_wrapper_design_cache()
    partitions_list.cache_clear()
    partition_matrix.cache_clear()
    gc.collect()


def _apply_fault_hooks(payload: Mapping[str, Any]) -> None:
    fault = payload.get("fault") or {}
    sleep_s = fault.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    attempt = int(payload.get("attempt", 0))
    if attempt in tuple(fault.get("exit_on_attempts", ())):
        os._exit(FAULT_EXIT_CODE)


def _run_one(payload: Mapping[str, Any]) -> tuple[Any, ...]:
    """Plan one payload in the child; returns the reply message.

    When the parent asked for telemetry (``payload["telemetry"]``), the
    child plans under a scoped observability context of its own and
    ships the collected spans and metrics *out of band* as a third
    tuple element -- the result text itself stays byte-identical with
    telemetry on or off (see ``execute_plan(strip_report=True)``).  The
    parent re-roots the spans under its attempt span, stitching the
    cross-process trace together per request id.
    """
    from repro import obs
    from repro.obs.logging import bind_request_id

    telemetry = bool(payload.get("telemetry"))
    request_id = str(payload.get("request_id") or "")
    try:
        _apply_fault_hooks(payload)
        if not telemetry:
            return ("ok", execute_plan(payload))
        with obs.enabled() as active, bind_request_id(request_id):
            with obs.span(
                "worker/plan",
                request_id=request_id,
                design=str(payload.get("design", "")),
                width=int(payload.get("width", 0)),
                pid=os.getpid(),
            ):
                text = execute_plan(payload, strip_report=True)
        shipped = {
            "spans": active.tracer.snapshot(),
            "metrics": active.registry.snapshot(),
        }
        return ("ok", text, shipped)
    except InvalidPlan as error:
        # Typed separately so the parent re-raises the dedicated code
        # (the generic branch collapses everything to WorkerError).
        return ("invalid", str(error))
    except Exception as error:  # noqa: BLE001 - ships the failure
        return ("error", f"{type(error).__name__}: {error}")


def _slot_main(conn: Any) -> None:
    """Child-process main: serve payloads from the pipe until ``None``."""
    # The child must never attach run reports the parent did not ask
    # for: a spawned child starts clean, but be explicit for any
    # platform that inherits an enabled context.
    from repro import obs

    obs.disable()
    # The parent owns the child's lifecycle: a terminal Ctrl-C reaches
    # the whole process group, and the serving parent drains on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if payload is None:
            return
        reply = _run_one(payload)
        try:
            conn.send(reply)
        except Exception:
            os._exit(1)  # parent gone or reply unpicklable: a crash
        reset_job_state()


class WorkerSlot:
    """One worker slot: a lazily spawned child reused across attempts.

    :meth:`run` executes one attempt and blocks; a slot serves one
    attempt at a time (the service checks slots out under its slot
    semaphore).  ``on_spawn`` is called, on the calling thread, each
    time the slot starts a child.
    """

    def __init__(self, *, on_spawn: Callable[[], None] | None = None) -> None:
        self._on_spawn = on_spawn
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._conn: Any = None

    @property
    def pid(self) -> int | None:
        """The live child's pid, or ``None`` before the first spawn."""
        return self._proc.pid if self._proc is not None else None

    def run(
        self,
        payload: Mapping[str, Any],
        *,
        timeout_s: float | None = None,
        should_cancel: Callable[[], bool] | None = None,
        poll_interval_s: float = POLL_INTERVAL_S,
    ) -> str | tuple[str, dict[str, Any]]:
        """Execute one attempt in this slot's child (blocking).

        Returns the result text -- or, when the payload requested
        telemetry and the child shipped some, a ``(text, telemetry)``
        tuple where ``telemetry`` holds the child's portable ``spans``
        and ``metrics`` snapshots for the parent to merge.

        Raises :class:`JobTimeout` / :class:`JobCancelled` after
        terminating the child, :class:`WorkerCrashed` when the child
        dies silently or the pipe breaks, :class:`WorkerError` when the
        child reports a deterministic failure.
        """
        deadline = (
            time.monotonic() + float(timeout_s)
            if timeout_s is not None
            else None
        )
        try:
            proc = self._proc
            if proc is None or not proc.is_alive():
                self._discard()
                proc = self._spawn()
            conn = self._conn
            conn.send(dict(payload))
            while True:
                if conn.poll(poll_interval_s):
                    message = conn.recv()
                    kind, value, *extra = message
                    if kind == "ok":
                        if extra and extra[0]:
                            return str(value), dict(extra[0])
                        return str(value)
                    if kind == "invalid":
                        raise InvalidPlan(str(value))
                    raise WorkerError(str(value))
                if should_cancel is not None and should_cancel():
                    raise JobCancelled("cancelled while running")
                if deadline is not None and time.monotonic() > deadline:
                    raise JobTimeout(
                        f"exceeded {timeout_s:.3g} s deadline; "
                        "worker terminated"
                    )
                if not proc.is_alive() and not conn.poll():
                    break
        except (EOFError, OSError):
            pass  # the pipe broke: the child is gone or unusable
        except WorkerError:
            raise  # the child answered; it stays warm
        except BaseException:
            # Timeout, cancel, or an interrupt of this thread: the child
            # may still be mid-plan, so it is replaced.
            self._discard()
            raise
        exitcode = self._discard()
        raise WorkerCrashed(
            f"worker died without a result (exit code {exitcode})",
            exitcode=exitcode,
        )

    def close(self) -> None:
        """Stop the child: sentinel, bounded join, then terminate."""
        proc = self._proc
        if proc is not None and proc.is_alive():
            try:
                self._conn.send(None)
            except OSError:
                pass  # already gone; the join below returns at once
            proc.join(timeout=CLOSE_GRACE_S)
        self._discard()

    def _spawn(self) -> multiprocessing.process.BaseProcess:
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_slot_main, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        if self._on_spawn is not None:
            self._on_spawn()
        return proc

    def _discard(self) -> int | None:
        """Terminate and forget the child; returns its exit code."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if conn is not None:
            conn.close()
        if proc is None:
            return None
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
        proc.join()
        return proc.exitcode


def run_job_in_process(
    payload: Mapping[str, Any],
    *,
    timeout_s: float | None = None,
    should_cancel: Callable[[], bool] | None = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> str | tuple[str, dict[str, Any]]:
    """Execute one attempt on a one-shot :class:`WorkerSlot`.

    Same returns and raises as :meth:`WorkerSlot.run`; the child is
    closed before this returns.
    """
    slot = WorkerSlot()
    try:
        return slot.run(
            payload,
            timeout_s=timeout_s,
            should_cancel=should_cancel,
            poll_interval_s=poll_interval_s,
        )
    finally:
        slot.close()


def run_job_inline(
    payload: Mapping[str, Any],
    *,
    timeout_s: float | None = None,
    should_cancel: Callable[[], bool] | None = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> str:
    """Thread-mode attempt: no process isolation, best-effort checks.

    Cancellation and timeout are honored only *before* the plan starts
    (a running thread cannot be killed); ``fault`` exit hooks are
    ignored (they would take the whole service down).
    """
    del poll_interval_s
    if should_cancel is not None and should_cancel():
        raise JobCancelled("cancelled before start")
    started = time.monotonic()
    text = execute_plan(payload)
    if timeout_s is not None and time.monotonic() - started > timeout_s:
        raise JobTimeout(
            f"finished after its {timeout_s:.3g} s deadline (inline worker "
            "cannot preempt); result discarded"
        )
    return text


def process_isolation_available() -> bool:
    """Whether the spawn-based worker can run on this platform."""
    try:
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_noop, daemon=True)
        proc.start()
        proc.join(timeout=30.0)
        return proc.exitcode == 0
    except Exception:
        return False


def _noop() -> None:
    return None
