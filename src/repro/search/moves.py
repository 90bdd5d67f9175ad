"""The neighborhood moves of the search spaces.

The greedy partition walk (:func:`greedy_descent`): split, shift and
merge around the bottleneck TAM, take the first strict improvement and
repeat.  The greedy backend runs it over the whole space; the
exhaustive search runs it over its partition list for an incumbent.

The annealer's joint (partition, assignment) space has four moves,
drawn uniformly, exactly as the original annealer did:

========  =========  ====================================================
index     name       effect
========  =========  ====================================================
0         reassign   move one core to a (possibly the same) random TAM
1         shift      move one wire from a donor TAM to a taker TAM
2         split      split one TAM in two, rehoming its cores coin-flip
3         merge      merge two TAMs (cores follow, indices compact)
========  =========  ====================================================

A proposal is *invalid* (returns ``None``) when the drawn move cannot
apply: the guard on the move index fails, shift drew ``donor == taker``
or a donor at ``min_width``, split drew a TAM too narrow to split, or
merge drew ``a == b``.

The RNG draw order in here is **load-bearing**: the differential suite
pins the refactored annealer bit-for-bit against the historical
implementation, and that only holds if every ``rng.integers`` /
``rng.random`` call happens in the same sequence -- including the
short-circuit in split, where the coin flip is drawn only for cores
currently homed on the split TAM.  Do not reorder draws.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.scheduler import ScheduleOutcome, TimeTable

#: Move index -> name, for labels and study-store records.
MOVE_NAMES = ("reassign", "shift", "split", "merge")


def greedy_moves(
    widths: list[int], bottleneck: int, min_width: int
) -> list[list[int]]:
    """Candidate width vectors one greedy step away from ``widths``."""
    candidates: list[list[int]] = []
    w = widths[bottleneck]
    if w >= 2 * min_width:
        half = w // 2
        split = widths[:bottleneck] + widths[bottleneck + 1 :] + [w - half, half]
        candidates.append(split)
    for donor in range(len(widths)):
        if donor == bottleneck or widths[donor] <= min_width:
            continue
        shifted = list(widths)
        shifted[donor] -= 1
        shifted[bottleneck] += 1
        candidates.append(shifted)
    if len(widths) >= 2:
        order = sorted(range(len(widths)), key=lambda i: widths[i])
        a, b = order[0], order[1]
        merged = [w for i, w in enumerate(widths) if i not in (a, b)]
        merged.append(widths[a] + widths[b])
        candidates.append(merged)
    return candidates


def bottleneck_tam(table: TimeTable, outcome: ScheduleOutcome) -> int:
    """The TAM with the largest summed test time (first on ties)."""
    loads = [0] * len(outcome.widths)
    for index, tam in enumerate(outcome.assignment):
        loads[tam] += table.row(outcome.widths[tam])[index]
    return max(range(len(loads)), key=lambda i: loads[i])


def greedy_descent(
    schedule: Callable[[Sequence[int]], ScheduleOutcome],
    table: TimeTable,
    start: Sequence[int],
    admit: Callable[[list[int]], bool],
    min_width: int,
) -> ScheduleOutcome:
    """Walk from ``start`` to the first strict improvement, repeatedly.

    Each candidate of :func:`greedy_moves` is sorted non-increasing and
    scheduled only if ``admit`` accepts it; the walk stops when no
    admitted candidate beats the best makespan.
    """
    best = schedule(start)
    improved = True
    while improved:
        improved = False
        bottleneck = bottleneck_tam(table, best)
        for widths in greedy_moves(list(best.widths), bottleneck, min_width):
            widths.sort(reverse=True)
            if not admit(widths):
                continue
            outcome = schedule(widths)
            if outcome.makespan < best.makespan:
                best = outcome
                improved = True
                break
    return best


def propose_move(
    rng: np.random.Generator,
    widths: list[int],
    assignment: list[int],
    *,
    max_parts: int,
    min_width: int,
) -> tuple[list[int], list[int]] | None:
    """Draw one move and apply it, or return ``None`` if invalid.

    ``widths`` / ``assignment`` are never mutated; a valid proposal
    returns fresh lists.
    """
    move = int(rng.integers(0, 4))
    n = len(assignment)
    new_widths = list(widths)
    new_assignment = list(assignment)
    if move == 0 and len(new_widths) > 1:
        index = int(rng.integers(0, n))
        new_assignment[index] = int(rng.integers(0, len(new_widths)))
    elif move == 1 and len(new_widths) > 1:
        donor = int(rng.integers(0, len(new_widths)))
        taker = int(rng.integers(0, len(new_widths)))
        if donor == taker or new_widths[donor] <= min_width:
            return None
        new_widths[donor] -= 1
        new_widths[taker] += 1
    elif move == 2 and len(new_widths) < max_parts:
        victim = int(rng.integers(0, len(new_widths)))
        if new_widths[victim] < 2 * min_width:
            return None
        half = int(rng.integers(min_width, new_widths[victim] - min_width + 1))
        new_widths[victim] -= half
        new_widths.append(half)
        fresh = len(new_widths) - 1
        for index in range(n):
            if new_assignment[index] == victim and rng.random() < 0.5:
                new_assignment[index] = fresh
    elif move == 3 and len(new_widths) > 1:
        a = int(rng.integers(0, len(new_widths)))
        b = int(rng.integers(0, len(new_widths)))
        if a == b:
            return None
        a, b = min(a, b), max(a, b)
        new_widths[a] += new_widths[b]
        del new_widths[b]
        for index in range(n):
            if new_assignment[index] == b:
                new_assignment[index] = a
            elif new_assignment[index] > b:
                new_assignment[index] -= 1
    else:
        return None
    return new_widths, new_assignment
