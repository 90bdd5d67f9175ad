"""Test scheduling (the paper's step 4).

Given a TAM partition (a list of widths) and, per core, a test time at
every width, the paper schedules with a longest-task-first list
heuristic: sort the cores by test time, longest first, then assign each
core to the TAM where the SOC test time grows the least.  Complexity is
O(n k) lookups for n cores and k TAMs.

Cores on a TAM are tested serially; TAMs run in parallel; the SOC test
time is the largest TAM finish time (the makespan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)

#: ``time_of(core_name, tam_width) -> test time`` lookup used while
#: scheduling; the optimizer backs it with the DSE lookup tables.
TimeFn = Callable[[str, int], int]

#: ``config_of(core_name, tam_width) -> CoreConfig`` resolves the full
#: per-core configuration once the assignment is fixed.
ConfigFn = Callable[[str, int], CoreConfig]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of scheduling one partition."""

    widths: tuple[int, ...]
    makespan: int
    assignment: tuple[int, ...]  # per core (input order), the TAM index


def schedule_cores(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeFn,
) -> ScheduleOutcome:
    """Assign cores to TAMs with the paper's list heuristic.

    Cores are sorted by their test time on the *widest* TAM (their best
    case), longest first, then greedily placed where the resulting
    makespan is smallest; ties prefer the TAM that finishes earliest,
    then the lowest TAM index, keeping the result deterministic.
    """
    if not widths:
        raise ValueError("at least one TAM is required")
    if any(w < 1 for w in widths):
        raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")

    widest = max(widths)
    order = sorted(
        range(len(core_names)),
        key=lambda i: (-time_of(core_names[i], widest), core_names[i]),
    )

    loads = [0] * len(widths)
    assignment = [-1] * len(core_names)
    for index in order:
        name = core_names[index]
        best_tam = -1
        best_key: tuple[int, int, int] | None = None
        current_makespan = max(loads)
        for tam, width in enumerate(widths):
            finish = loads[tam] + time_of(name, width)
            key = (max(current_makespan, finish), finish, tam)
            if best_key is None or key < best_key:
                best_key = key
                best_tam = tam
        assignment[index] = best_tam
        loads[best_tam] += time_of(name, widths[best_tam])

    return ScheduleOutcome(
        widths=tuple(widths),
        makespan=max(loads),
        assignment=tuple(assignment),
    )


class TimeTable:
    """Dense, position-indexed memo over a ``time_of`` callback.

    The partition search schedules tens of thousands of partitions over
    the same handful of cores and widths; going through the generic
    ``time_of(name, width)`` callback per (core, TAM) step pays dict and
    LRU overhead millions of times.  This table resolves each width to a
    plain row of ints (indexed by core position) once, and memoizes the
    longest-first core order per widest width -- the only two lookups
    the inner loop needs.
    """

    def __init__(self, core_names: Sequence[str], time_of: TimeFn) -> None:
        self.core_names = list(core_names)
        self._time_of = time_of
        self._rows: dict[int, list[int]] = {}
        self._orders: dict[int, list[int]] = {}

    def row(self, width: int) -> list[int]:
        """Test time of every core (input order) at ``width``."""
        row = self._rows.get(width)
        if row is None:
            row = [self._time_of(name, width) for name in self.core_names]
            self._rows[width] = row
        return row

    def order(self, widest: int) -> list[int]:
        """Longest-first core order at ``widest`` (ties by name)."""
        order = self._orders.get(widest)
        if order is None:
            row = self.row(widest)
            names = self.core_names
            order = sorted(range(len(names)), key=lambda i: (-row[i], names[i]))
            self._orders[widest] = order
        return order


def schedule_cores_indexed(
    table: TimeTable, widths: Sequence[int]
) -> ScheduleOutcome:
    """Fast path of :func:`schedule_cores` over a :class:`TimeTable`.

    Bit-identical to ``schedule_cores(table.core_names, widths,
    time_of)`` -- same ordering, same tie-breaks (pinned by the
    differential suite) -- with every lookup a list index.
    """
    if not widths:
        raise ValueError("at least one TAM is required")
    if any(w < 1 for w in widths):
        raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")

    order = table.order(max(widths))
    rows = [table.row(w) for w in widths]
    num_tams = len(widths)
    loads = [0] * num_tams
    assignment = [-1] * len(table.core_names)
    for index in order:
        current_makespan = max(loads)
        best_tam = -1
        best_key: tuple[int, int, int] | None = None
        for tam in range(num_tams):
            finish = loads[tam] + rows[tam][index]
            key = (max(current_makespan, finish), finish, tam)
            if best_key is None or key < best_key:
                best_key = key
                best_tam = tam
        assignment[index] = best_tam
        loads[best_tam] += rows[best_tam][index]

    return ScheduleOutcome(
        widths=tuple(widths),
        makespan=max(loads),
        assignment=tuple(assignment),
    )


#: Test time of the padding column: a padded TAM keeps load 0, so its
#: finish is this value, never the first minimum and never an overflow.
_PAD_TIME = np.iinfo(np.int64).max

#: Core steps between two pruning passes against the incumbent.
PRUNE_EVERY = 4


@dataclass(frozen=True)
class PartitionMatrix:
    """A partition list padded to one ``(partitions, tams)`` matrix.

    ``width_col`` indexes ``widths`` (the distinct widths, ascending);
    a partition with fewer TAMs than the widest list entry is padded
    with column ``len(widths)``.  Real TAMs keep their column position,
    so the first-minimum tie-break is the lowest TAM index.
    """

    partitions: tuple[tuple[int, ...], ...]
    widths: np.ndarray
    width_col: np.ndarray
    num_tams: np.ndarray
    #: Distinct widest widths (ascending) and each row's index into them.
    widest: tuple[int, ...]
    widest_row: np.ndarray
    #: First position of every partition in the list.
    index: dict[tuple[int, ...], int]


@lru_cache(maxsize=16)
def partition_matrix(
    partitions: tuple[tuple[int, ...], ...],
) -> PartitionMatrix:
    """Validate, pad and index a partition list once (memoized)."""
    counts = np.fromiter(map(len, partitions), np.int64, len(partitions))
    flat = np.fromiter(
        chain.from_iterable(partitions), np.int64, int(counts.sum())
    )
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    bad = counts == 0
    bad[counts > 0] = np.minimum.reduceat(flat, offsets[counts > 0]) < 1
    if bad.any():
        first = partitions[int(np.argmax(bad))]
        if not first:
            raise ValueError("at least one TAM is required")
        raise ValueError(f"TAM widths must be >= 1, got {tuple(first)}")

    widths, flat_col = np.unique(flat, return_inverse=True)
    width_col = np.full((len(partitions), int(counts.max())), len(widths))
    width_col[np.arange(width_col.shape[1]) < counts[:, None]] = flat_col
    widest, widest_row = np.unique(
        np.maximum.reduceat(flat, offsets), return_inverse=True
    )
    index: dict[tuple[int, ...], int] = {}
    for position, partition in enumerate(partitions):
        index.setdefault(partition, position)
    # Every caller shares the memoized arrays.
    for array in (widths, width_col, counts, widest_row):
        array.flags.writeable = False
    return PartitionMatrix(
        partitions=partitions,
        widths=widths,
        width_col=width_col,
        num_tams=counts,
        widest=tuple(int(w) for w in widest),
        widest_row=widest_row,
        index=index,
    )


def schedule_makespans_batch(
    table: TimeTable,
    partitions: Sequence[tuple[int, ...]],
    incumbent: int | None = None,
) -> np.ndarray:
    """Makespan of every partition, vectorized across partitions.

    Without ``incumbent`` it returns an int64 array aligned with
    ``partitions``, equal to
    ``[schedule_cores_indexed(table, p).makespan for p in partitions]``
    (pinned by the differential suite).  The list heuristic is
    sequential over cores but embarrassingly parallel over partitions:
    every partition advances one core per step in lockstep over a
    padded ``(partitions, tams)`` load matrix, each placing its cores
    in its own ``table.order(widest)``.

    Per core the scalar key ``(makespan, finish, tam)`` is minimized.
    ``makespan = max(current, finish)`` never decreases as ``finish``
    grows, so that key orders the TAMs exactly as ``(finish, tam)``
    does: the choice is the first minimum finish, which ``argmin``
    gives directly.

    With ``incumbent`` (a position in ``partitions``) the kernel prunes
    against ``UB``, the incumbent's exact makespan: every
    :data:`PRUNE_EVERY` core steps it drops the rows whose lower bound
    -- the current makespan, or the final mean TAM load -- exceeds
    ``UB``, or merely reaches it after the incumbent's position.  A
    dropped row reports that lower bound, so every entry is at most
    the exact makespan and the rows that can be the first minimum are
    exact: ``argmin`` and ``min`` are those of the exact array.
    """
    if not len(partitions):
        return np.zeros(0, dtype=np.int64)
    matrix = partition_matrix(tuple(partitions))
    with obs.span("kernel.schedule-batch", partitions=len(partitions)):
        return _lockstep(table, matrix, incumbent)


def _lockstep(
    table: TimeTable, matrix: PartitionMatrix, incumbent: int | None
) -> np.ndarray:
    cores = len(table.core_names)
    # (widths + padding, cores) time matrix; resolving the rows up front
    # also triggers any lazy fills behind ``time_of`` once.
    times = np.empty((len(matrix.widths) + 1, cores), dtype=np.int64)
    for column, width in enumerate(matrix.widths.tolist()):
        times[column] = table.row(width)
    times[-1] = _PAD_TIME
    flat_times = times.ravel()
    # (steps, distinct widest): the core each row places at each step.
    orders = np.array(
        [table.order(w) for w in matrix.widest], dtype=np.intp
    ).reshape(len(matrix.widest), cores)
    steps = orders.T.copy()

    out = np.empty(len(matrix.partitions), dtype=np.int64)
    positions = np.arange(len(matrix.partitions))
    offsets = matrix.width_col * cores
    widest_row = matrix.widest_row
    num_tams = matrix.num_tams
    loads = np.zeros(offsets.shape, dtype=np.int64)
    current = np.zeros(len(positions), dtype=np.int64)

    if incumbent is not None:
        if not 0 <= incumbent < len(matrix.partitions):
            raise ValueError(f"incumbent {incumbent} is not a list position")
        bound = schedule_cores_indexed(
            table, matrix.partitions[incumbent]
        ).makespan
        rest = _remaining_bound(times[:-1], matrix, orders)

    row_base = np.arange(len(positions)) * offsets.shape[1]
    for step in range(cores):
        if incumbent is not None and step % PRUNE_EVERY == 0:
            total = loads.sum(axis=1) + rest[widest_row, step]
            lower = np.maximum(current, -(-total // num_tams))
            drop = lower > bound
            drop |= (lower == bound) & (positions > incumbent)
            if drop.any():
                out[positions[drop]] = lower[drop]
                keep = ~drop
                positions = positions[keep]
                offsets = offsets[keep]
                widest_row = widest_row[keep]
                num_tams = num_tams[keep]
                loads = loads[keep]
                current = current[keep]
                row_base = row_base[: len(positions)]
        finish = flat_times[offsets + steps[step][widest_row, None]]
        finish += loads
        picked = finish.argmin(axis=1)
        picked += row_base
        chosen = finish.ravel()[picked]
        loads.ravel()[picked] = chosen
        np.maximum(current, chosen, out=current)
    out[positions] = current
    return out


def _remaining_bound(
    times: np.ndarray, matrix: PartitionMatrix, orders: np.ndarray
) -> np.ndarray:
    """``rest[d, s]``: least total time of the cores from step ``s`` on.

    Row ``d`` is widest width ``matrix.widest[d]``; each remaining core
    costs at least its minimum over every listed width up to the widest
    -- a prefix minimum over the ascending width rows, which stays a
    bound although test time is not monotone in width.
    """
    cheapest = np.minimum.accumulate(times, axis=0)
    cheapest = cheapest[np.searchsorted(matrix.widths, matrix.widest)]
    ordered = np.take_along_axis(cheapest, orders, axis=1)
    rest = np.zeros((len(matrix.widest), orders.shape[1] + 1), np.int64)
    rest[:, :-1] = ordered[:, ::-1].cumsum(axis=1)[:, ::-1]
    return rest


def build_architecture(
    soc_name: str,
    core_names: Sequence[str],
    outcome: ScheduleOutcome,
    config_of: ConfigFn,
    *,
    placement: DecompressorPlacement,
    ate_channels: int,
    time_of: TimeFn | None = None,
) -> TestArchitecture:
    """Materialize a :class:`TestArchitecture` from a schedule outcome.

    Start times are laid out serially per TAM in the same
    longest-first order the scheduler used, so the architecture passes
    its own overlap validation and the makespan is preserved.

    ``time_of`` should be the same lookup the scheduler ordered by.
    The scheduler sorted cores by ``time_of(name, widest)``; reordering
    here by ``config_of(name, widest).test_time`` instead is only safe
    when the two agree at the widest width.  When a caller's
    ``config_of`` disagrees (a resolver that picks a different codec
    or wrapper at materialization time), the divergent order would
    shuffle start times away from the ``ScheduleOutcome`` and the
    materialized makespan could differ from ``outcome.makespan`` --
    so pass ``time_of`` whenever it is available; the ``config_of``
    fallback exists for callers that genuinely have only configs.
    """
    widths = outcome.widths
    tams = tuple(Tam(index=i, width=w) for i, w in enumerate(widths))

    # Recreate the scheduling order to lay out serial slots per TAM.
    widest = max(widths)
    if time_of is not None:
        widest_time = time_of
    else:
        def widest_time(name: str, width: int) -> int:
            return config_of(name, width).test_time

    order = sorted(
        range(len(core_names)),
        key=lambda i: (
            -widest_time(core_names[i], widest),
            core_names[i],
        ),
    )
    loads = [0] * len(widths)
    scheduled: list[ScheduledCore] = []
    for index in order:
        name = core_names[index]
        tam = outcome.assignment[index]
        config = config_of(name, widths[tam])
        start = loads[tam]
        end = start + config.test_time
        loads[tam] = end
        scheduled.append(
            ScheduledCore(config=config, tam_index=tam, start=start, end=end)
        )

    arch = TestArchitecture(
        soc_name=soc_name,
        placement=placement,
        tams=tams,
        scheduled=tuple(scheduled),
        ate_channels=ate_channels,
    )
    return arch
