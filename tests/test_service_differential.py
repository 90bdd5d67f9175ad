"""Differential proof: the service path equals the direct pipeline.

A plan requested through submit -> queue -> worker -> ``result_to_json``
-> socket -> ``result_from_dict`` must be bit-identical (the engine's
strict ``TestArchitecture`` equality plus matching search statistics)
to calling :func:`repro.pipeline.plan` directly.  ``cpu_seconds`` and
``stage_timings`` are wall clock and are the only fields allowed to
differ.

Thread isolation is used so the service worker shares this process's
analysis memo -- the serialization/transport path under test is
identical to process mode, which the fault and server tests cover.
One process-mode case serves a sequence of designs through a single
warm worker slot, proving the per-job reset leaves no state behind.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_from_json
from repro.serve import (
    JobState,
    PlanningService,
    PlanRequest,
    ServiceSettings,
)
from repro.serve.worker import process_isolation_available
from repro.soc.industrial import load_design
from repro.verify import verify_plan

# d695 (the academic benchmark) and d2758 (the ITC'02-class design).
DESIGNS = ("d695", "d2758")


def _assert_same_plan(new, old):
    assert new.architecture == old.architecture
    assert new.soc_name == old.soc_name
    assert new.width_budget == old.width_budget
    assert new.compression == old.compression
    assert new.partitions_evaluated == old.partitions_evaluated
    assert new.strategy == old.strategy
    assert new.test_time == old.test_time
    assert new.test_data_volume == old.test_data_volume
    assert new.tam_widths == old.tam_widths


def _service_plan(design: str, width: int, config: RunConfig):
    async def scenario():
        service = PlanningService(
            ServiceSettings(workers=1, isolation="thread")
        )
        await service.start()
        job, _ = service.submit(PlanRequest(design, width, config))
        done = await service.wait(job.id, timeout=600)
        await service.shutdown(drain=True)
        assert done.state is JobState.DONE, done.error
        return result_from_json(done.result_json)

    return asyncio.run(scenario())


@pytest.mark.parametrize("design", DESIGNS)
def test_service_bit_identical_to_direct_plan(design):
    config = RunConfig(compression="auto")
    direct = plan(load_design(design), 16, config)
    served = _service_plan(design, 16, config)
    _assert_same_plan(served, direct)


def test_service_bit_identical_under_constraints():
    """Constraint bookkeeping survives the full service round trip."""
    config = RunConfig(compression="auto", power_budget=900.0)
    direct = plan(load_design("d695"), 12, config)
    served = _service_plan("d695", 12, config)
    _assert_same_plan(served, direct)
    assert served.peak_power == direct.peak_power
    assert served.power_budget == direct.power_budget
    assert served.tam_idle_cycles == direct.tam_idle_cycles


def test_perf_knobs_coalesce_onto_identical_plan():
    """Requests differing only in jobs/cache knobs dedup onto one job
    whose result equals a direct run with either knob set."""

    async def scenario():
        service = PlanningService(
            ServiceSettings(workers=1, isolation="thread")
        )
        await service.start()
        first, deduped_first = service.submit(
            PlanRequest("d695", 16, RunConfig(jobs=4, use_cache=False))
        )
        second, deduped_second = service.submit(
            PlanRequest("d695", 16, RunConfig(jobs=1, use_cache=False))
        )
        assert not deduped_first and deduped_second
        assert second is first
        done = await service.wait(first.id, timeout=600)
        await service.shutdown(drain=True)
        assert done.state is JobState.DONE, done.error
        return result_from_json(done.result_json)

    served = asyncio.run(scenario())
    direct = plan(load_design("d695"), 16, RunConfig(jobs=1))
    _assert_same_plan(served, direct)


#: Alternating designs and widths, revisiting d695 at a new width last.
WARM_SLOT_SEQUENCE = (
    ("d695", 32),
    ("d2758", 16),
    ("System1", 24),
    ("d695", 16),
)


@pytest.mark.skipif(
    not process_isolation_available(),
    reason="multiprocessing spawn unavailable on this platform",
)
def test_one_warm_slot_serves_a_design_sequence_like_fresh_plans():
    config = RunConfig()

    async def scenario():
        service = PlanningService(
            ServiceSettings(workers=1, isolation="process")
        )
        await service.start()
        served = []
        for design, width in WARM_SLOT_SEQUENCE:
            job, _ = service.submit(PlanRequest(design, width, config))
            done = await service.wait(job.id, timeout=600)
            assert done.state is JobState.DONE, done.error
            served.append(result_from_json(done.result_json))
        await service.shutdown(drain=True)
        return service, served

    service, served = asyncio.run(scenario())
    # Every request ran in the same worker process.
    assert service.counters["workers_started"] == 1
    for (design, width), result in zip(WARM_SLOT_SEQUENCE, served):
        soc = load_design(design)
        assert verify_plan(result, soc, config=config).ok
        _assert_same_plan(result, plan(soc, width, config))
