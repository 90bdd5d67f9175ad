"""The evolutionary backend and its persistent study store.

The backend is a population search over the joint (partition,
assignment) space: mutation reuses the annealer's move set, crossover
mixes assignment vectors, selection ranks by Pareto front over
``(makespan, volume, peak-power proxy)``.  The key promises tested
here:

* operators always produce *valid* states (budget, min width, TAM
  references);
* results are deterministic in the seed;
* a study saved at generation ``k`` and resumed to ``n`` is
  **bit-identical** to a straight ``n``-generation run -- same
  architecture, same evaluation count;
* the 100+-core synthetic workload (``repro.soc.synthetic``) plans
  end-to-end through the pipeline with verification on, which is the
  regime the backend exists for (the partition space at ``W=128``
  dwarfs ``AUTO_PARTITION_LIMIT``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.pipeline import RunConfig, plan
from repro.search import (
    Evaluator,
    SearchSpace,
    SearchState,
    Study,
    resolve_search_space,
    run_search,
)
from repro.search.backends.evolutionary import (
    crossover_states,
    mutate_state,
    random_state,
    rank_population,
)
from repro.search.study import STUDY_KIND, STUDY_SCHEMA
from repro.soc.synthetic import synthetic_soc


def _workload(seed: int, n: int = 8):
    rng = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(n)]
    base = {name: int(rng.integers(40, 4000)) for name in names}

    def time_of(name: str, width: int) -> int:
        return -(-base[name] // width) + 3

    return names, time_of


def _valid(state: SearchState, space: SearchSpace, num_cores: int) -> bool:
    return (
        sum(state.widths) == space.total_width
        and 1 <= len(state.widths) <= space.max_parts
        and all(w >= space.min_width for w in state.widths)
        and len(state.assignment) == num_cores
        and all(0 <= t < len(state.widths) for t in state.assignment)
    )


# ----------------------------------------------------------------------
# Operators.
# ----------------------------------------------------------------------


class TestOperators:
    def test_random_state_is_valid(self):
        space = resolve_search_space(10, 17, max_parts=5, min_width=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert _valid(random_state(rng, space, 10), space, 10)

    def test_random_state_min_width_one_tam(self):
        space = resolve_search_space(4, 5, max_parts=1)
        rng = np.random.default_rng(1)
        state = random_state(rng, space, 4)
        assert state.widths == (5,)
        assert state.assignment == (0, 0, 0, 0)

    def test_crossover_keeps_parent_a_widths(self):
        space = resolve_search_space(6, 12, max_parts=4)
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_state(rng, space, 6)
            b = random_state(rng, space, 6)
            child = crossover_states(rng, a, b)
            assert child.widths == a.widths
            assert _valid(child, space, 6)
            for i, tam in enumerate(child.assignment):
                assert tam in (a.assignment[i], b.assignment[i])

    def test_mutation_preserves_budget(self):
        space = resolve_search_space(8, 14, max_parts=4, min_width=2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = random_state(rng, space, 8)
            mutated = mutate_state(rng, state, space, 2)
            assert _valid(mutated, space, 8)

    def test_mutation_in_cramped_space_terminates(self):
        """max_parts=1 disables every move; the try budget bounds it."""
        space = resolve_search_space(4, 4, max_parts=1)
        rng = np.random.default_rng(4)
        state = SearchState(widths=(4,), assignment=(0, 0, 0, 0))
        assert mutate_state(rng, state, space, 3) == state

    def test_rank_population_front_order(self):
        fitness = [
            (10.0, 5.0, 1.0),  # dominated by the two below
            (8.0, 4.0, 1.0),
            (9.0, 1.0, 0.5),   # trades volume for makespan: same front
            (8.0, 4.0, 1.0),   # duplicate of index 1
        ]
        order, front_size = rank_population(fitness)
        assert front_size == 3
        assert order[:3] == [1, 3, 2]  # by makespan then index
        assert order[3] == 0


# ----------------------------------------------------------------------
# Backend behavior.
# ----------------------------------------------------------------------


class TestEvolutionaryBackend:
    def test_deterministic_in_seed(self):
        names, time_of = _workload(0)
        opts = dict(generations=6, population=8, seed=42)
        a = run_search(
            names, 12, time_of, strategy="evolutionary", options=opts
        )
        b = run_search(
            names, 12, time_of, strategy="evolutionary", options=opts
        )
        assert a == b

    def test_result_is_canonical_and_feasible(self):
        names, time_of = _workload(1)
        result = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=5, population=8, seed=0),
        )
        assert result.strategy == "evolutionary"
        assert sum(result.widths) == 12
        assert all(
            a >= b for a, b in zip(result.widths, result.widths[1:])
        )
        assert result.makespan == Evaluator(names, time_of).makespan_of(
            result.widths, result.outcome.assignment
        )

    def test_multi_objective_lookups_are_used(self):
        """With volume/power wired, fitness vectors are 3-D (the ranks
        differ from pure makespan ordering at least sometimes)."""
        names, time_of = _workload(2)
        result = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=4, population=8, seed=0),
            volume_of=lambda name, width: width * 100,
            power_of=lambda name: float(len(name)),
        )
        assert result.strategy == "evolutionary"
        assert sum(result.widths) == 12

    def test_zero_generations_returns_initial_best(self):
        names, time_of = _workload(3)
        result = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=0, population=6, seed=0),
        )
        # The single-TAM seed member is always in the initial population,
        # so the best-of-init is at most its makespan.
        single = Evaluator(names, time_of).makespan_of(
            (12,), (0,) * len(names)
        )
        assert result.makespan <= single
        assert result.partitions_evaluated == 6

    @pytest.mark.parametrize(
        "opts, match",
        [
            (dict(population=1), "population"),
            (dict(generations=-1), "generations"),
            (dict(crossover=1.5), "crossover"),
            (dict(mutations=0), "mutations"),
            (dict(tournament=0), "tournament"),
            (dict(elite=-1), "elite"),
            (dict(resume=True), "study path"),
        ],
    )
    def test_option_validation(self, opts, match):
        names, time_of = _workload(4)
        with pytest.raises(ValueError, match=match):
            run_search(
                names, 12, time_of, strategy="evolutionary", options=opts
            )


# ----------------------------------------------------------------------
# The study store and --resume.
# ----------------------------------------------------------------------


class TestStudyResume:
    def test_resume_is_bit_identical_to_straight_run(self, tmp_path):
        names, time_of = _workload(5)
        study = str(tmp_path / "study.json")
        base = dict(population=8, seed=9)
        straight = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=8, **base),
        )
        partial = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=3, study=study, **base),
        )
        resumed = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=8, study=study, resume=True, **base),
        )
        assert resumed == straight
        assert partial.partitions_evaluated < straight.partitions_evaluated

    def test_resume_past_end_is_a_no_op(self, tmp_path):
        names, time_of = _workload(5)
        study = str(tmp_path / "study.json")
        opts = dict(population=6, seed=1, study=study)
        done = run_search(
            names, 12, time_of,
            strategy="evolutionary", options=dict(generations=4, **opts),
        )
        again = run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=4, resume=True, **opts),
        )
        assert again == done

    def test_study_file_is_schema_stamped(self, tmp_path):
        names, time_of = _workload(6)
        study = tmp_path / "study.json"
        run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(
                generations=2, population=6, seed=0, study=str(study)
            ),
        )
        payload = json.loads(study.read_text())
        assert payload["kind"] == STUDY_KIND
        assert payload["schema"] == STUDY_SCHEMA
        assert payload["generation"] == 2
        assert payload["best"] is not None
        assert len(payload["history"]) == 2
        assert payload["population"]

    def test_mismatched_study_refuses_resume(self, tmp_path):
        names, time_of = _workload(6)
        study = str(tmp_path / "study.json")
        run_search(
            names, 12, time_of,
            strategy="evolutionary",
            options=dict(generations=2, population=6, seed=0, study=study),
        )
        with pytest.raises(ValueError, match="refusing to resume"):
            run_search(
                names, 12, time_of,
                strategy="evolutionary",
                options=dict(
                    generations=4, population=6, seed=1,
                    study=study, resume=True,
                ),
            )

    def test_load_rejects_foreign_json(self, tmp_path):
        bogus = tmp_path / "not_a_study.json"
        bogus.write_text(json.dumps({"kind": "bench-hotpath"}))
        with pytest.raises(ValueError, match="not a search study"):
            Study.load(bogus)
        wrong_schema = tmp_path / "wrong_schema.json"
        wrong_schema.write_text(
            json.dumps({"kind": STUDY_KIND, "schema": 999})
        )
        with pytest.raises(ValueError, match="schema"):
            Study.load(wrong_schema)


# ----------------------------------------------------------------------
# End-to-end: the 100+-core synthetic workload.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth120():
    return synthetic_soc(120)


class TestManyCoreEndToEnd:
    def test_plans_and_verifies_at_scale(self, synth120):
        """A 120-core SOC, non-enumerable space, verification on."""
        result = plan(
            synth120,
            64,
            RunConfig(
                strategy="evolutionary",
                search_opts=(
                    ("generations", "3"),
                    ("population", "6"),
                    ("seed", "0"),
                ),
                verify=True,
            ),
        )
        assert result.strategy == "evolutionary"
        assert result.soc_name == "synth120"
        assert sum(result.tam_widths) <= 64
        assert len(result.architecture.scheduled) == 120

    def test_pipeline_resume_bit_identical(self, synth120, tmp_path):
        study = str(tmp_path / "synth120.json")
        base = (("population", "6"), ("seed", "3"))
        straight = plan(
            synth120,
            64,
            RunConfig(
                strategy="evolutionary",
                search_opts=base + (("generations", "4"),),
            ),
        )
        plan(
            synth120,
            64,
            RunConfig(
                strategy="evolutionary",
                search_opts=base
                + (("generations", "2"), ("study", study)),
            ),
        )
        resumed = plan(
            synth120,
            64,
            RunConfig(
                strategy="evolutionary",
                search_opts=base
                + (
                    ("generations", "4"),
                    ("study", study),
                    ("resume", "true"),
                ),
            ),
        )
        assert resumed.architecture == straight.architecture
        assert resumed.partitions_evaluated == straight.partitions_evaluated
        assert resumed.test_time == straight.test_time


# ----------------------------------------------------------------------
# CLI surface: --strategy evolutionary, --search-opt (incl. study/resume).
# ----------------------------------------------------------------------


class TestCli:
    def test_plan_evolutionary_with_study(self, tmp_path, capsys):
        study = tmp_path / "cli_study.json"
        argv = [
            "plan", "d695", "--width", "12",
            "--strategy", "evolutionary",
            "--search-opt", "generations=2",
            "--search-opt", "population=6",
            "--search-opt", f"study={study}",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(evolutionary)" in out
        assert study.exists()
        assert main(argv + ["--search-opt", "resume=true"]) == 0

    def test_malformed_search_opt_is_a_usage_error(self, capsys):
        code = main(
            [
                "plan", "d695", "--width", "12",
                "--strategy", "anneal", "--search-opt", "iterations",
            ]
        )
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_search_opt_is_a_usage_error(self, capsys):
        code = main(
            [
                "plan", "d695", "--width", "12",
                "--strategy", "anneal", "--search-opt", "bogus=1",
            ]
        )
        assert code == 2
        assert "known options" in capsys.readouterr().err
