#!/usr/bin/env python
"""The golden plan corpus: one fingerprint per plan, diffed by tier-1.

Refactors of the planner must produce bit-identical plans.  This script
plans a fixed set of requests through ``repro.pipeline.plan`` and
records, per plan, the makespan, the test-data volume, the TAM widths,
the search strategy, and each core's start, TAM width and wrapper-chain
count ``m``.  ``tests/test_golden_plans.py`` replans the same requests
and diffs them against the committed corpus, so any change to a plan
shows up as a test failure naming the design, request and field.

The corpus covers the six paper SOCs plus ``synth20``:

* at W in {16, 32, 64}: the default request (``auto``), the greedy
  search, the rectangle packer, and the no-TDC baseline;
* at W = 48: the default request only, whose exhaustive search runs
  over a 7,760-partition list;
* at W = 16 only: a power budget of 1.5x the largest core power, and
  the per-TAM decompressor flow of Figure 4(b).

Only this script writes the corpus; regenerate it deliberately, after a
change that is meant to alter plans::

    python scripts/golden_plans.py --write          # rewrite the corpus
    python scripts/golden_plans.py                  # diff, exit 1 on drift
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

CORPUS_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden_plans.json"

DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4", "synth20")
WIDTHS = (16, 32, 64)
BUDGET_FACTOR = 1.5

#: Request kinds planned at every width, then those planned at W=16 only.
SWEEP_KINDS = ("auto", "greedy", "packing", "none")
NARROW_KINDS = ("budget", "per-tam")
NARROW_WIDTH = 16
#: Widths planned with the default request only.
AUTO_WIDTHS = (48,)


def requests(design: str) -> list[tuple[str, int]]:
    """The ``(kind, width)`` requests planned for one design."""
    sweep = [(kind, width) for width in WIDTHS for kind in SWEEP_KINDS]
    sweep += [("auto", width) for width in AUTO_WIDTHS]
    return sweep + [(kind, NARROW_WIDTH) for kind in NARROW_KINDS]


def config_for(kind: str, soc: Any) -> Any:
    """The ``RunConfig`` a request kind stands for."""
    from repro.pipeline import RunConfig

    if kind == "auto":
        return RunConfig()
    if kind == "greedy":
        return RunConfig(strategy="greedy")
    if kind == "packing":
        return RunConfig(architecture="packing", schedule="packing")
    if kind == "none":
        return RunConfig(compression="none")
    if kind == "per-tam":
        return RunConfig(compression="per-tam")
    if kind == "budget":
        from repro.power.model import power_table

        largest = max(power_table(soc, compression=True).values())
        return RunConfig(power_budget=BUDGET_FACTOR * largest)
    raise ValueError(f"unknown request kind {kind!r}")


def fingerprint(result: Any) -> dict[str, Any]:
    """The plan facts the corpus pins, in a JSON-ready form."""
    arch = result.architecture
    width_of = {tam.index: tam.width for tam in arch.tams}
    cores = {
        item.config.core_name: [
            item.start,
            width_of[item.tam_index],
            item.config.wrapper_chains,
        ]
        for item in arch.scheduled
    }
    return {
        "makespan": result.test_time,
        "volume": result.test_data_volume,
        "tam_widths": list(result.tam_widths),
        "strategy": result.strategy,
        "cores": dict(sorted(cores.items())),
    }


def plan_design(design: str) -> dict[str, Any]:
    """Fingerprints of every request for one design, keyed ``kind@W``."""
    from repro.pipeline import plan
    from repro.soc.industrial import load_design

    soc = load_design(design)
    return {
        f"{kind}@{width}": fingerprint(plan(soc, width, config_for(kind, soc)))
        for kind, width in requests(design)
    }


def build_corpus() -> dict[str, Any]:
    return {design: plan_design(design) for design in DESIGNS}


def dumps(corpus: dict[str, Any]) -> str:
    """The corpus as JSON with one line per plan, so a diff names the plan."""
    designs = []
    for design in sorted(corpus):
        plans = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(fp, sort_keys=True)}"
            for key, fp in sorted(corpus[design].items())
        )
        designs.append(f" {json.dumps(design)}: {{\n{plans}\n }}")
    return "{\n" + ",\n".join(designs) + "\n}\n"


def load_corpus(path: Path = CORPUS_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def diff(expected: dict[str, Any], actual: dict[str, Any]) -> list[str]:
    """Human-readable differences between two corpora (empty if equal)."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            lines.append(f"{key}: missing from the replan")
        elif key not in expected:
            lines.append(f"{key}: not in the corpus")
        elif expected[key] != actual[key]:
            fields = sorted(
                f for f in expected[key] if expected[key][f] != actual[key].get(f)
            )
            lines.append(f"{key}: differs in {', '.join(fields)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the committed corpus"
    )
    parser.add_argument("--out", type=Path, default=CORPUS_PATH)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    corpus = build_corpus()
    seconds = time.perf_counter() - began
    plans = sum(len(entries) for entries in corpus.values())
    if args.write:
        args.out.write_text(dumps(corpus))
        print(f"wrote {plans} plans to {args.out} in {seconds:.1f} s")
        return 0
    problems = []
    expected = load_corpus(args.out)
    for design in sorted(set(expected) | set(corpus)):
        for line in diff(expected.get(design, {}), corpus.get(design, {})):
            problems.append(f"{design} {line}")
    for line in problems:
        print(line)
    print(f"{plans} plans, {len(problems)} differ ({seconds:.1f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
