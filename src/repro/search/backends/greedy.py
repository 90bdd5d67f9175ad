"""Greedy backend: split/shift/merge around the bottleneck TAM.

Bit-identical to the pre-refactor ``_greedy`` in
``repro/core/partition.py`` (pinned by the differential suite): start
from the single full-width TAM, find the TAM that finishes last, try
splitting it, pulling a wire from every possible donor, and merging the
two narrowest TAMs; take the first strict improvement and repeat.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core.scheduler import ScheduleOutcome
from repro.flags import use_scalar_kernels
from repro.search.evaluator import Evaluator
from repro.search.moves import greedy_descent
from repro.search.state import PartitionSearchResult, SearchSpace


class GreedyBackend:
    name = "greedy"
    hyperparameters: Mapping[str, type] = {}

    def run(
        self, evaluator: Evaluator, space: SearchSpace, **options: Any
    ) -> PartitionSearchResult:
        schedule: Callable[[Sequence[int]], ScheduleOutcome]
        if use_scalar_kernels():
            schedule = evaluator.schedule_scalar
        else:
            schedule = evaluator.schedule
        best = greedy_descent(
            schedule,
            evaluator.table,
            space.single_tam,
            lambda widths: len(widths) <= space.max_parts
            and widths[-1] >= space.min_width,
            space.min_width,
        )
        return PartitionSearchResult(
            outcome=best,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )
