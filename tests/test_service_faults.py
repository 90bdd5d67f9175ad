"""Fault injection: crashes, timeouts, cancellation, queue persistence.

These tests use the ``fault`` request hooks with **process** isolation
-- the real worker path, where a child can genuinely die or be
terminated -- and are the acceptance tests for the service's failure
contract: crashes retry with backoff and then complete, timeouts kill
the worker without wedging the queue, shutdown persists queued jobs for
the next service generation.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import sys
import time

import pytest

from repro import obs
from repro.pipeline import RunConfig
from repro.serve import (
    JobState,
    PlanningService,
    PlanRequest,
    ServiceSettings,
)
from repro.serve.errors import JobTimeout, WorkerCrashed, WorkerError
from repro.serve.service import STATE_FILENAME, STATE_SCHEMA_VERSION
from repro.serve.worker import (
    FAULT_EXIT_CODE,
    run_job_in_process,
    process_isolation_available,
)

pytestmark = pytest.mark.skipif(
    not process_isolation_available(),
    reason="multiprocessing spawn unavailable on this platform",
)

_CONFIG = RunConfig(compression="none", use_cache=False)


def _request(width: int = 8, **kwargs) -> PlanRequest:
    return PlanRequest("d695", width, _CONFIG, **kwargs)


def _settings(**overrides) -> ServiceSettings:
    defaults = dict(
        workers=1,
        isolation="process",
        max_retries=2,
        retry_base_s=0.05,
        retry_cap_s=0.2,
    )
    defaults.update(overrides)
    return ServiceSettings(**defaults)


class TestWorkerPrimitives:
    def test_crash_surfaces_exit_code(self):
        payload = _request(fault={"exit_on_attempts": [0]}).worker_payload(0)
        with pytest.raises(WorkerCrashed) as excinfo:
            run_job_in_process(payload)
        assert excinfo.value.exitcode == FAULT_EXIT_CODE

    def test_timeout_terminates_worker(self):
        payload = _request(fault={"sleep_s": 30}).worker_payload(0)
        started = time.monotonic()
        with pytest.raises(JobTimeout):
            run_job_in_process(payload, timeout_s=0.5)
        # The 30 s sleep was cut short by termination.
        assert time.monotonic() - started < 15

    def test_unknown_design_is_deterministic_worker_error(self):
        payload = PlanRequest("no-such-soc", 8, _CONFIG).worker_payload(0)
        with pytest.raises(WorkerError):
            run_job_in_process(payload)


class TestRetryOnCrash:
    def test_crashed_worker_retried_with_backoff_then_completes(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            # Crash on attempt 0 only; attempt 1 runs clean.
            job, _ = service.submit(
                _request(fault={"exit_on_attempts": [0]})
            )
            done = await service.wait(job.id, timeout=300)
            await service.shutdown(drain=True)
            return service, done

        service, done = asyncio.run(scenario())
        assert done.state is JobState.DONE, done.error
        assert done.attempts == 2
        assert service.counters["jobs_retried"] >= 1
        assert service.counters["jobs_completed"] == 1
        exported = json.loads(done.result_json)
        assert exported["soc"] == "d695"

    def test_retries_exhausted_fails_with_crash_code(self):
        async def scenario():
            service = PlanningService(_settings(max_retries=1))
            await service.start()
            # Crash on every attempt the policy allows.
            job, _ = service.submit(
                _request(fault={"exit_on_attempts": [0, 1]})
            )
            done = await service.wait(job.id, timeout=300)
            await service.shutdown(drain=True)
            return service, done

        service, done = asyncio.run(scenario())
        assert done.state is JobState.FAILED
        assert done.error_code == "worker-crashed"
        assert done.attempts == 2
        assert service.counters["jobs_failed"] == 1


class TestTimeoutAndCancel:
    def test_timed_out_job_does_not_wedge_the_queue(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            stuck, _ = service.submit(
                _request(fault={"sleep_s": 30}, timeout_s=0.5)
            )
            follower, _ = service.submit(_request(width=10))
            stuck_done = await service.wait(stuck.id, timeout=300)
            follower_done = await service.wait(follower.id, timeout=300)
            await service.shutdown(drain=True)
            return service, stuck_done, follower_done

        service, stuck, follower = asyncio.run(scenario())
        assert stuck.state is JobState.FAILED
        assert stuck.error_code == "timeout"
        assert service.counters["jobs_timed_out"] == 1
        # The slot was reclaimed: the next job ran to completion.
        assert follower.state is JobState.DONE, follower.error

    def test_cancel_running_job_terminates_worker(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            job, _ = service.submit(_request(fault={"sleep_s": 30}))
            deadline = time.monotonic() + 60
            while job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            service.cancel(job.id)
            done = await service.wait(job.id, timeout=300)
            await service.shutdown(drain=True)
            return done

        started = time.monotonic()
        done = asyncio.run(scenario())
        assert done.state is JobState.CANCELLED
        assert time.monotonic() - started < 25  # not the full 30 s sleep


async def _wait_running(job) -> None:
    deadline = time.monotonic() + 60
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline
        await asyncio.sleep(0.02)


class TestWarmSlots:
    """One long-lived worker process per slot, replaced only on faults."""

    def test_consecutive_jobs_share_one_worker_process(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            slot_pids = []
            for width in (8, 10):
                job, _ = service.submit(_request(width=width))
                done = await service.wait(job.id, timeout=300)
                assert done.state is JobState.DONE, done.error
                slot_pids.append(service.slots[0].pid)
            await service.shutdown(drain=True)
            return service, slot_pids

        with obs.enabled() as active:
            service, slot_pids = asyncio.run(scenario())
        plan_pids = [
            span.pid for span in active.tracer.spans
            if span.name == "worker/plan"
        ]
        assert len(plan_pids) == 2
        assert plan_pids[0] != os.getpid()
        assert plan_pids == slot_pids == [plan_pids[0]] * 2
        assert service.counters["workers_started"] == 1

    @pytest.mark.parametrize("fault", ["timeout", "cancel", "crash"])
    def test_fault_replaces_the_slot_process(self, fault):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            warm, _ = service.submit(_request(width=8))
            warm = await service.wait(warm.id, timeout=300)
            assert warm.state is JobState.DONE, warm.error
            before = service.slots[0].pid
            if fault == "timeout":
                faulty, _ = service.submit(
                    _request(width=10, fault={"sleep_s": 30}, timeout_s=0.5)
                )
            elif fault == "cancel":
                faulty, _ = service.submit(
                    _request(width=10, fault={"sleep_s": 30})
                )
                await _wait_running(faulty)
                service.cancel(faulty.id)
            else:
                faulty, _ = service.submit(
                    _request(width=10, fault={"exit_on_attempts": [0]})
                )
            faulty = await service.wait(faulty.id, timeout=300)
            follower, _ = service.submit(_request(width=12))
            follower = await service.wait(follower.id, timeout=300)
            after = service.slots[0].pid
            await service.shutdown(drain=True)
            return service, faulty, follower, before, after

        service, faulty, follower, before, after = asyncio.run(scenario())
        expected = {
            "timeout": JobState.FAILED,
            "cancel": JobState.CANCELLED,
            "crash": JobState.DONE,  # the retry ran on the replacement
        }[fault]
        assert faulty.state is expected, faulty.error
        assert before is not None and after is not None
        assert after != before
        assert follower.state is JobState.DONE, follower.error
        assert service.counters["workers_started"] == 2

    def test_concurrent_slots_never_share_a_process(self):
        """More slots than cores, more jobs than slots: every job gets
        its own request's result back, and each slot starts once."""
        widths = list(range(8, 26, 2))

        async def scenario():
            service = PlanningService(_settings(workers=3, max_depth=16))
            await service.start()
            jobs = [service.submit(_request(width=w))[0] for w in widths]
            done = [await service.wait(job.id, timeout=300) for job in jobs]
            await service.shutdown(drain=True)
            return service, done

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service, done = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        for width, job in zip(widths, done):
            assert job.state is JobState.DONE, job.error
            result = json.loads(job.result_json)
            assert result["optimizer"]["width_budget"] == width
        assert service.counters["workers_started"] == 3

    @pytest.mark.parametrize("drain", [True, False])
    def test_shutdown_leaves_no_worker_processes(self, drain):
        async def scenario():
            service = PlanningService(_settings(workers=2))
            await service.start()
            first, _ = service.submit(_request(width=8))
            await service.wait(first.id, timeout=300)
            running, _ = service.submit(
                _request(width=10, fault={"sleep_s": 1.0 if drain else 30})
            )
            await _wait_running(running)
            live = {child.pid for child in multiprocessing.active_children()}
            slot_pids = {s.pid for s in service.slots if s.pid is not None}
            await service.shutdown(drain=drain)
            return running, live, slot_pids

        running, live, slot_pids = asyncio.run(scenario())
        # The warm processes were alive between jobs...
        assert slot_pids and slot_pids <= live
        # ...and shutdown stopped and reaped every one of them.
        assert multiprocessing.active_children() == []
        assert running.state is (
            JobState.DONE if drain else JobState.CANCELLED
        ), running.error


class TestQueuePersistence:
    def test_shutdown_persists_queued_jobs_and_restart_completes_them(
        self, tmp_path
    ):
        state_dir = str(tmp_path)

        async def first_generation():
            service = PlanningService(
                _settings(state_dir=state_dir, retry_base_s=0.05)
            )
            await service.start()
            blocker, _ = service.submit(_request(fault={"sleep_s": 1.0}))
            # Yield so the dispatcher claims the blocker's worker slot;
            # the next two submissions then stay queued.
            deadline = time.monotonic() + 60
            while blocker.state is JobState.QUEUED:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            queued, _ = service.submit(_request(width=10))
            queued_2, _ = service.submit(_request(width=12))
            persisted = await service.shutdown(drain=True)
            return service, persisted, [queued.id, queued_2.id]

        service, persisted, queued_ids = asyncio.run(first_generation())
        assert persisted == 2
        assert service.counters["jobs_persisted"] == 2
        state_file = tmp_path / STATE_FILENAME
        assert state_file.exists()
        saved = json.loads(state_file.read_text())
        assert saved["schema"] == STATE_SCHEMA_VERSION
        assert {r["job_id"] for r in saved["jobs"]} == set(queued_ids)

        async def second_generation():
            service = PlanningService(_settings(state_dir=state_dir))
            restored = await service.start()
            results = []
            for job_id in queued_ids:
                job = await service.wait(job_id, timeout=300)
                results.append(job)
            await service.shutdown(drain=True)
            return service, restored, results

        service2, restored, results = asyncio.run(second_generation())
        assert restored == 2
        assert service2.counters["jobs_restored"] == 2
        for job in results:
            assert job.state is JobState.DONE, job.error
        # The state file was consumed; a clean shutdown leaves none.
        assert not state_file.exists()

    def test_corrupt_state_file_does_not_block_startup(self, tmp_path):
        (tmp_path / STATE_FILENAME).write_text("{not json")

        async def scenario():
            service = PlanningService(
                ServiceSettings(
                    workers=1, isolation="thread", state_dir=str(tmp_path)
                )
            )
            restored = await service.start()
            await service.shutdown(drain=True)
            return service, restored

        service, restored = asyncio.run(scenario())
        assert restored == 0
        assert service.counters["state_corrupt"] == 1
        assert not (tmp_path / STATE_FILENAME).exists()

    def test_unparseable_record_skipped_not_fatal(self, tmp_path):
        payload = {
            "schema": STATE_SCHEMA_VERSION,
            "saved_at": 0.0,
            "jobs": [
                {"job_id": "job-bad", "request": {"design": "d695"}},
                {
                    "job_id": "job-good",
                    "submitted_at": 1.0,
                    "request": _request(width=10).to_dict(),
                },
            ],
        }
        (tmp_path / STATE_FILENAME).write_text(json.dumps(payload))

        async def scenario():
            service = PlanningService(
                ServiceSettings(
                    workers=1, isolation="thread", state_dir=str(tmp_path)
                )
            )
            restored = await service.start()
            job = await service.wait("job-good", timeout=300)
            await service.shutdown(drain=True)
            return service, restored, job

        service, restored, job = asyncio.run(scenario())
        assert restored == 1
        assert service.counters["state_corrupt"] == 1
        assert job.state is JobState.DONE, job.error
