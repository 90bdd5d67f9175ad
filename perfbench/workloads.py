"""Seeded workload generation: the op lists the benchmark runs.

Everything here is pure stdlib and depends only on the seed, so the same
``--seed`` always yields the same designs, widths, budgets and orders.
The program under test sees only what these lists name: design names
(or seeded synthetic SOCs), TAM widths, power-budget factors and
precedence seeds.

Seeds vary the inputs while keeping their aggregate steady, so that the
spread between seeds measures the program and not the draw:

* widths are dealt from a fixed multiset, so every seed plans the same
  mix of widths, only paired with different designs;
* the two synthetic SOCs of ``warm-sweep`` and ``serve-closed`` have core
  counts that sum to a constant, so the total work is nearly fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's six benchmark SOCs.
PAPER_SOCS = ("d695", "d2758", "System1", "System2", "System3", "System4")

#: Widths the CLI and served requests draw from.  Each design's first
#: plan is at the widest, so it builds the design's whole analysis and the
#: later, seeded widths read it back from the disk cache.
FIRST_WIDTH = 64
LATER_WIDTHS = (16, 24, 32, 48)

#: warm-sweep: exhaustive/auto, greedy and packing widths per design.
SWEEP_AUTO_WIDTHS = (16, 32, 48, 64)
SWEEP_GREEDY_WIDTHS = (64, 96, 128)
SWEEP_PACK_WIDTHS = (16, 32)

#: constrained: (design, widths) pairs from {16, 24, 32}, each planned
#: twice.  The timeline engine searches every partition, so its cost grows
#: fast with width and cores: synth40 takes 1-1.5 s at W=16 and about 15 s
#: at W=32.  The pairs are chosen so that a pass takes about 6 s and a run
#: holds two passes, and so that the median plan falls inside a group of
#: plans of similar cost (0.15-0.25 s), not in the gap below it.
CONSTRAINED_PLANS = (
    ("d695", (16, 24)),
    ("d2758", (16,)),
    ("System1", (24, 32)),
    ("System2", (16, 24)),
    ("System3", (16, 24)),
    ("System4", (16,)),
    ("synth20", (16,)),
    ("synth40", (16,)),
)
#: Budget factors are drawn in mirrored pairs (f, BUDGET_MIRROR - f).
BUDGET_RANGE = (1.2, 2.0)
BUDGET_MIRROR = sum(BUDGET_RANGE)


@dataclass(frozen=True)
class Design:
    """A design by catalogue name, or a seeded ``synthetic_soc(cores, seed)``."""

    name: str
    cores: int = 0
    seed: int | None = None

    @property
    def synthetic(self) -> bool:
        return self.seed is not None


@dataclass(frozen=True)
class Op:
    """One plan request.

    ``kind`` is ``auto``, ``greedy`` or ``packing`` for unconstrained
    plans and ``constrained`` for power/precedence plans, which carry the
    budget as a factor of the design's largest single-core power and, for
    half of them, a seed for acyclic precedence pairs.
    """

    design: Design
    width: int
    kind: str = "auto"
    budget_factor: float = 0.0
    precedence_seed: int | None = None


def dealt_widths(
    rng: random.Random, counts: list[int], widths: tuple[int, ...]
) -> list[list[int]]:
    """Deal ``sum(counts)`` widths from a fixed multiset into groups.

    The multiset cycles through ``widths``, so it is the same for every
    seed; the seed only decides which group (design) gets which width.
    Each group holds distinct widths.
    """
    pool = [widths[i % len(widths)] for i in range(sum(counts))]
    while True:
        rng.shuffle(pool)
        groups, start = [], 0
        for count in counts:
            groups.append(pool[start : start + count])
            start += count
        if all(len(set(group)) == len(group) for group in groups):
            return groups


def first_then_dealt(
    rng: random.Random, names: list[str], later: int
) -> list[Op]:
    """Each design at :data:`FIRST_WIDTH`, in catalogue order, then
    ``later`` dealt widths per design in a seeded order."""
    groups = dealt_widths(rng, [later] * len(names), LATER_WIDTHS)
    rest = [
        Op(Design(name), width)
        for name, group in zip(names, groups)
        for width in group
    ]
    rng.shuffle(rest)
    return [Op(Design(name), FIRST_WIDTH) for name in names] + rest


def cold_cli_ops(seed: int) -> list[Op]:
    """Six paper SOCs at three widths each: 64 first, two dealt widths later."""
    return first_then_dealt(random.Random(f"cold-cli:{seed}"), list(PAPER_SOCS), 2)


def _synthetic_pair(
    rng: random.Random, low: int, span: int, total: int
) -> list[Design]:
    """Two seeded synthetic SOCs whose core counts sum to ``total``."""
    first = rng.randint(low, low + span)
    return [
        Design(f"synth{n}", n, rng.randrange(2**31)) for n in (first, total - first)
    ]


def warm_sweep_ops(seed: int) -> list[Op]:
    """Paper SOCs plus two seeded synthetic SOCs (60-80 and 180-200 cores)."""
    rng = random.Random(f"warm-sweep:{seed}")
    designs = [Design(name) for name in PAPER_SOCS]
    designs += _synthetic_pair(rng, 60, 20, 260)
    ops = []
    for design in designs:
        ops += [Op(design, w, "auto") for w in SWEEP_AUTO_WIDTHS]
        ops += [Op(design, w, "greedy") for w in SWEEP_GREEDY_WIDTHS]
        ops += [Op(design, w, "packing") for w in SWEEP_PACK_WIDTHS]
    rng.shuffle(ops)
    return ops


def constrained_ops(seed: int) -> list[Op]:
    """Power-budgeted plans; exactly half also carry precedence pairs.

    Every (design, width) is planned twice, with budget factors ``f`` and
    ``BUDGET_MIRROR - f``; one of the two, chosen by the seed, carries
    seeded precedence pairs.
    """
    rng = random.Random(f"constrained:{seed}")
    ops = []
    for name, widths in CONSTRAINED_PLANS:
        for width in widths:
            factor = round(rng.uniform(*BUDGET_RANGE), 4)
            ordered = rng.random() < 0.5
            for twin, budget in enumerate((factor, BUDGET_MIRROR - factor)):
                ops.append(
                    Op(
                        Design(name),
                        width,
                        "constrained",
                        budget_factor=budget,
                        precedence_seed=(
                            rng.randrange(2**31) if twin == ordered else None
                        ),
                    )
                )
    rng.shuffle(ops)
    return ops


def serve_ops(seed: int) -> list[Op]:
    """Distinct (design, width) requests: each design at 64, then two more.

    The designs are the paper SOCs and two catalogue ``synth<N>`` SOCs
    whose core counts (20-35 and 45-60) sum to 80.  No pair repeats, so
    the service's dedup never fires on a correct run.
    """
    rng = random.Random(f"serve-closed:{seed}")
    first = rng.randint(20, 35)
    names = list(PAPER_SOCS) + [f"synth{first}", f"synth{80 - first}"]
    return first_then_dealt(rng, names, 2)


WORKLOAD_OPS = {
    "cold-cli": cold_cli_ops,
    "warm-sweep": warm_sweep_ops,
    "constrained": constrained_ops,
    "serve-closed": serve_ops,
}


def precedence_pairs(names: list[str], seed: int) -> tuple[tuple[str, str], ...]:
    """Seeded acyclic precedence: pairs that follow one random order."""
    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    count = max(1, min(4, len(order) // 3))
    pairs = set()
    while len(pairs) < count:
        a, b = sorted(rng.sample(range(len(order)), 2))
        pairs.add((order[a], order[b]))
    return tuple(sorted(pairs))
