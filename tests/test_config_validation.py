"""Configs no pipeline honours are refused when the ``RunConfig`` is built.

Each flow honours a fixed set of request fields (see
``RunConfig.stage_names`` and docs/api.md, "One front door").  Before
this validation existed, a config outside that set planned anyway and
silently dropped the field -- a per-TAM or packed plan ignored its power
budget, a constrained plan ignored its search strategy -- or crashed
mid-pipeline (per-TAM compression with the packing stages).  The tests
here pin the refusal at every surface: the library, the CLI, and the
planning service's submit path.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.pipeline import RunConfig, pipeline_for, plan
from repro.power.model import power_table
from repro.serve import PlanningService, PlanRequest, ServiceSettings
from repro.serve.errors import ProtocolError
from repro.serve.protocol import decode_message, encode_message
from repro.serve.server import ServiceServer
from repro.soc.industrial import load_design

PACKING = dict(architecture="packing", schedule="packing")
CONSTRAINED = dict(architecture="constrained", schedule="constrained")


def _d695_budget(factor: float = 1.2) -> float:
    soc = load_design("d695")
    return factor * max(power_table(soc, compression=True).values())


PER_TAM = dict(compression="per-tam")
BUDGET = dict(power_budget=1000.0)
POWER_OF = dict(power_of={"a": 1.0})
PRECEDENCE = dict(precedence=(("a", "b"),))
STRATEGY = dict(strategy="greedy")
SEARCH_OPTS = dict(search_opts={"seed": 3})

UNHONOURED = {
    "per-tam+budget": {**PER_TAM, **BUDGET},
    "per-tam+power_of": {**PER_TAM, **POWER_OF},
    "per-tam+precedence": {**PER_TAM, **PRECEDENCE},
    "packing+budget": {**PACKING, **BUDGET},
    "packing+power_of": {**PACKING, **POWER_OF},
    "packing+precedence": {**PACKING, **PRECEDENCE},
    "budget+strategy": {**BUDGET, "strategy": "anneal"},
    "precedence+strategy": {**PRECEDENCE, **STRATEGY},
    "budget+search_opts": {**BUDGET, **SEARCH_OPTS},
    "constrained-stages+strategy": {**CONSTRAINED, **STRATEGY},
    "per-tam+strategy": {**PER_TAM, **STRATEGY},
    "per-tam+search_opts": {**PER_TAM, **SEARCH_OPTS},
    "packing+strategy": {**PACKING, **STRATEGY},
    "packing+search_opts": {**PACKING, **SEARCH_OPTS},
    "packing+per-tam": {**PACKING, **PER_TAM},
}


class TestRunConfigRefuses:
    @pytest.mark.parametrize("fields", UNHONOURED.values(), ids=UNHONOURED)
    def test_unhonoured_config_raises_at_construction(self, fields):
        with pytest.raises(ValueError, match="honour|per-tam"):
            RunConfig(**fields)

    @pytest.mark.parametrize("fields", UNHONOURED.values(), ids=UNHONOURED)
    def test_from_dict_refuses(self, fields):
        data = RunConfig().to_dict()
        data.update(fields)
        if "search_opts" in fields:
            data["search_opts"] = [list(p) for p in fields["search_opts"].items()]
        with pytest.raises(ValueError):
            RunConfig.from_dict(data)

    def test_d695_per_tam_budget_plan_is_refused(self):
        """The measured case: W=16, budget 1.2x the largest core power.

        Planned anyway, the per-TAM flow ignored the budget and returned
        a plan over it while reporting ``power_budget`` as if honoured.
        """
        budget = _d695_budget()
        with pytest.raises(ValueError, match="per-tam flow does not honour"):
            plan(
                load_design("d695"),
                16,
                RunConfig(compression="per-tam", power_budget=budget),
            )

    def test_d695_packed_budget_plan_is_refused(self):
        budget = _d695_budget()
        with pytest.raises(ValueError, match="packing flow does not honour"):
            plan(load_design("d695"), 16, RunConfig(power_budget=budget, **PACKING))

    def test_per_tam_packing_no_longer_crashes_mid_pipeline(self):
        """It used to raise ``RuntimeError: ... needs lookup tables``."""
        with pytest.raises(ValueError, match="per-tam"):
            RunConfig(compression="per-tam", **PACKING)

    @pytest.mark.parametrize(
        "half", [dict(architecture="constrained"), dict(schedule="per-tam")]
    )
    def test_paired_stages_must_be_selected_together(self, half):
        with pytest.raises(ValueError, match="selected together"):
            RunConfig(**half)

    def test_pack_opts_need_the_packing_stages(self):
        with pytest.raises(ValueError, match="pack_opts"):
            RunConfig(pack_opts={"heuristic": "diagonal"})


class TestHonouredConfigsStillPlan:
    """Guards: the validation must not refuse what a flow does honour."""

    @pytest.mark.parametrize(
        "fields, stages",
        [
            (dict(), ("partition", "list")),
            (dict(strategy="greedy", search_opts={}), ("partition", "list")),
            ({**BUDGET, **PRECEDENCE}, ("constrained",) * 2),
            (dict(CONSTRAINED), ("constrained",) * 2),
            (dict(compression="per-tam"), ("per-tam",) * 2),
            (dict(PACKING, pack_opts={"heuristic": "auto"}), ("packing",) * 2),
            (dict(architecture="robust", strategy="greedy"), ("robust", "list")),
            (dict(architecture="partition", **POWER_OF), ("partition", "list")),
        ],
    )
    def test_auto_strategy_is_valid_for_every_flow(self, fields, stages):
        config = RunConfig(**fields)
        assert config.stage_names() == stages
        assert pipeline_for(config).stages

    def test_budget_and_precedence_plan_on_d695(self):
        soc = load_design("d695")
        names = list(soc.core_names)
        result = plan(
            soc,
            16,
            RunConfig(
                power_budget=_d695_budget(1.5), precedence=((names[0], names[1]),)
            ),
        )
        assert result.strategy == "exhaustive"
        assert result.peak_power <= result.power_budget


class TestCliExitsTwo:
    @pytest.mark.parametrize(
        "argv",
        [
            "plan --strategy greedy --architecture packing --schedule packing",
            "plan --compression per-tam --strategy anneal",
            "verify --strategy greedy --architecture packing --schedule packing",
            "export --compression per-tam --search-opt seed=1",
        ],
        ids=["plan-packing", "plan-per-tam", "verify-packing", "export-per-tam"],
    )
    def test_unhonoured_request_is_a_usage_error(self, argv, capsys):
        command, *flags = argv.split()
        assert main([command, "d695", "--width", "16", *flags, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert "does not honour" in captured.err
        assert captured.out == ""

    def test_per_tam_with_packing_exits_two(self, capsys):
        argv = ["export", "d695", "--width", "16", "--compression", "per-tam"]
        argv += ["--architecture", "packing", "--schedule", "packing", "--no-cache"]
        assert main(argv) == 2
        assert "per-tam" in capsys.readouterr().err


class _CountingRunner:
    """A service runner that records every attempt it is asked to run."""

    def __init__(self) -> None:
        self.calls: list[dict] = []

    def __call__(self, payload, *, timeout_s=None, should_cancel=None):
        self.calls.append(dict(payload))
        raise AssertionError("an unhonoured request reached a worker attempt")


class TestServiceRejectsAtSubmit:
    BAD = dict(compression="per-tam", power_budget=1122.0)

    def _message(self) -> dict:
        config = RunConfig().to_dict()
        config.update(self.BAD)
        return {"op": "submit", "design": "d695", "width": 16, "config": config}

    def test_plan_request_from_dict_refuses(self):
        with pytest.raises(ProtocolError, match="bad config.*does not honour"):
            PlanRequest.from_dict(self._message())

    def test_submit_op_answers_bad_request_without_an_attempt(self):
        runner = _CountingRunner()
        service = PlanningService(
            ServiceSettings(workers=1, isolation="thread", max_depth=4),
            runner=runner,
        )
        server = ServiceServer(service)
        line = encode_message(self._message())
        response = decode_message(encode_message(asyncio.run(server._respond(line))))
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        assert "does not honour" in response["message"]
        assert runner.calls == []
        assert service.jobs == {}
        assert service.counters.get("jobs_submitted", 0) == 0
