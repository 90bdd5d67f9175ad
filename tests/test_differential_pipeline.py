"""Differential proof: the pipeline reproduces the pre-refactor plans.

``tests/_legacy_optimizer.py`` is the optimizer exactly as it stood
before ``repro.pipeline`` existed.  These tests run it next to
:func:`repro.pipeline.plan` on the real benchmark designs and require
*bit-identical* architectures (``TestArchitecture`` equality is strict:
same TAMs, same placement order, same per-core configurations) plus
matching search statistics.  ``cpu_seconds`` is wall clock and is the
one field allowed to differ.

Within one test the module-level analysis memo makes the second run
nearly free, so each comparison pays for the design-space exploration
only once.
"""

from __future__ import annotations

import pytest

import _legacy_optimizer as legacy
from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_from_json, result_to_json
from repro.soc.industrial import load_design

ALL_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")

#: The legacy constrained entry point always ran the constrained
#: stages, with or without constraints set.
CONSTRAINED = dict(architecture="constrained", schedule="constrained")


def _plan(soc, width, **fields):
    return plan(soc, width, RunConfig(**fields))


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


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_optimize_soc_bit_identical(design):
    soc = load_design(design)
    new = _plan(soc, 16, compression="auto")
    old = legacy.legacy_optimize_soc(soc, 16, compression="auto")
    _assert_same_plan(new, old)


@pytest.mark.parametrize("compression", ["none", "per-core", "select"])
def test_optimize_soc_modes_bit_identical(compression):
    soc = load_design("d695")
    new = _plan(soc, 16, compression=compression)
    old = legacy.legacy_optimize_soc(soc, 16, compression=compression)
    _assert_same_plan(new, old)


@pytest.mark.parametrize("design", ["d695", "System1"])
def test_constrained_bit_identical(design):
    soc = load_design(design)
    new = _plan(soc, 12, power_budget=900.0)
    old = legacy.legacy_optimize_soc_constrained(soc, 12, power_budget=900.0)
    _assert_same_plan(new, old)
    assert new.peak_power == old.peak_power
    assert new.power_budget == old.power_budget
    assert new.tam_idle_cycles == old.tam_idle_cycles


def test_constrained_unconstrained_bit_identical():
    """No constraints still means the exhaustive constrained scan."""
    soc = load_design("d695")
    new = _plan(soc, 12, **CONSTRAINED)
    old = legacy.legacy_optimize_soc_constrained(soc, 12)
    _assert_same_plan(new, old)


def test_constrained_precedence_bit_identical():
    soc = load_design("d695")
    names = list(soc.core_names)
    precedence = ((names[0], names[1]), (names[2], names[3]))
    new = _plan(soc, 12, precedence=precedence)
    old = legacy.legacy_optimize_soc_constrained(soc, 12, precedence=precedence)
    _assert_same_plan(new, old)
    assert new.tam_idle_cycles == old.tam_idle_cycles


@pytest.mark.parametrize("design", ["d695", "System1"])
def test_per_tam_bit_identical(design):
    soc = load_design(design)
    new = _plan(soc, 12, compression="per-tam")
    old = legacy.legacy_optimize_per_tam(soc, 12)
    _assert_same_plan(new, old)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=0),
        dict(width=16, compression="bogus"),
    ],
)
def test_optimize_soc_errors_match_legacy(kwargs, tiny_soc):
    """Same invalid input -> same exception type and message."""
    width = kwargs.pop("width")
    with pytest.raises(ValueError) as new_err:
        _plan(tiny_soc, width, **kwargs)
    with pytest.raises(ValueError) as old_err:
        legacy.legacy_optimize_soc(tiny_soc, width, **kwargs)
    assert str(new_err.value) == str(old_err.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=0),
        dict(width=2, min_tam_width=5),
    ],
)
def test_constrained_errors_match_legacy(kwargs, tiny_soc):
    width = kwargs.pop("width")
    with pytest.raises(ValueError) as new_err:
        _plan(tiny_soc, width, **CONSTRAINED, **kwargs)
    with pytest.raises(ValueError) as old_err:
        legacy.legacy_optimize_soc_constrained(tiny_soc, width, **kwargs)
    assert str(new_err.value) == str(old_err.value)


def test_per_tam_errors_match_legacy(tiny_soc):
    with pytest.raises(ValueError) as new_err:
        _plan(tiny_soc, 2, compression="per-tam")
    with pytest.raises(ValueError) as old_err:
        legacy.legacy_optimize_per_tam(tiny_soc, 2)
    assert str(new_err.value) == str(old_err.value)


def test_plan_result_json_round_trip(tiny_soc):
    result = plan(tiny_soc, 8, RunConfig(compression="auto"))
    restored = result_from_json(result_to_json(result))
    assert restored == result


def test_constrained_result_json_round_trip(tiny_soc):
    result = _plan(tiny_soc, 6, power_budget=10_000.0)
    restored = result_from_json(result_to_json(result))
    assert restored == result
    assert restored.peak_power == result.peak_power
    assert restored.tam_idle_cycles == result.tam_idle_cycles
    assert restored.stage_timings == result.stage_timings


def test_per_tam_result_json_round_trip(tiny_soc):
    result = _plan(tiny_soc, 6, compression="per-tam")
    restored = result_from_json(result_to_json(result))
    assert restored == result
