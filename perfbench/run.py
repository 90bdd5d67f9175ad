"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the program is taken from ``src/``
of that checkout.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The lines before it are an environment
header and the same metrics as text.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from common import (
    FORBIDDEN_ENV,
    SRC,
    WORK_ROOT,
    RunContext,
    environment_header,
)
from workloads import WORKLOAD_OPS


def _runner(workload: str):
    if workload == "cold-cli":
        import cold

        return cold.run
    if workload == "serve-closed":
        import served

        return served.run
    import inproc

    return inproc.run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inherited = [name for name in FORBIDDEN_ENV if name in os.environ]
    if inherited:
        print(
            f"refusing to run: {', '.join(inherited)} set in the environment "
            "would change what the program does",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    header = environment_header()
    header.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("# env " + json.dumps(header), flush=True)

    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    ctx = RunContext(seconds=args.seconds, trace=bool(args.trace), work=Path(work))
    try:
        outcome = _runner(args.workload)(ctx, WORKLOAD_OPS[args.workload](args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = ctx.notes.pop("spans", None)
    if spans is not None:
        path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans), encoding="utf-8")
        ctx.notes["spans_file"] = str(path.relative_to(WORK_ROOT.parent))
    if ctx.notes:
        print("# run " + json.dumps(ctx.notes, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name:34s} {value:14.6g} {unit}")
    correct = (
        outcome.failed == 0
        and outcome.attempted > 0
        and outcome.accounting_ok is not False
    )
    if outcome.accounting_ok is False:
        print("# trace accounting check failed", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
