"""Shared helpers: the checkout layout, child processes, statistics, checks."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; every run makes and removes its own
#: directory here, and traced runs leave their span files behind.
WORK_ROOT = ROOT / ".perfbench-work"

#: Variables that change what the program does; a run inherits none.
FORBIDDEN_ENV = (
    "REPRO_SCALAR_KERNELS",
    "REPRO_OBS",
    "REPRO_JOBS",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_DIR",
)

#: Per-plan deadline for CLI children and served jobs.
PLAN_TIMEOUT_S = 120.0


@dataclass
class RunContext:
    """One benchmark run: its arguments and its private work directory."""

    seconds: float
    trace: bool
    work: Path
    notes: dict[str, Any] = field(default_factory=dict)

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work)

    def child_env(self, **extra: str) -> dict[str, str]:
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        env["TMPDIR"] = str(self.work)
        env.update(extra)
        return env


@dataclass
class ChildRun:
    """What one finished child process cost, from its parent's side."""

    wall_s: float
    returncode: int
    maxrss_mb: float
    cpu_s: float
    stderr: str


def run_child(
    argv: list[str], env: dict[str, str], *, timeout_s: float = PLAN_TIMEOUT_S
) -> ChildRun:
    """Run ``argv`` to completion; wall time is spawn to exit.

    The child's resource usage (its own and that of the processes it
    waited for) comes from ``wait4``; a child past ``timeout_s`` is
    killed and reported with a negative return code.
    """
    with tempfile.TemporaryFile(dir=env.get("TMPDIR")) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return ChildRun(
        wall_s=wall,
        returncode=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stderr=text[-2000:],
    )


def process_probes(ctx: RunContext, repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Interpreter start and ``import repro.cli``, each the median of fresh runs."""
    env = ctx.child_env()
    interp = [
        run_child([sys.executable, "-c", "pass"], env).wall_s for _ in range(repeats)
    ]
    imported = [
        run_child([sys.executable, "-c", "import repro.cli"], env).wall_s
        for _ in range(repeats)
    ]
    interp_s = statistics.median(interp)
    return {
        "process.interp_s": (interp_s, "s"),
        "process.import_s": (statistics.median(imported) - interp_s, "s"),
    }


def p90(values: list[float]) -> float:
    """The 90th percentile (inclusive method); one value is its own p90."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def fingerprint(result: Any) -> tuple:
    """Makespan, volume, TAM widths and each core's (start, width, m)."""
    arch = result.architecture
    widths = {tam.index: tam.width for tam in arch.tams}
    cores = sorted(
        (
            slot.config.core_name,
            slot.start,
            widths[slot.tam_index],
            slot.config.wrapper_chains,
        )
        for slot in arch.scheduled
    )
    return (
        arch.test_time,
        arch.test_data_volume,
        tuple(tam.width for tam in arch.tams),
        tuple(cores),
    )


def environment_header() -> dict[str, Any]:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def end_to_end(
    *,
    setup_s: float,
    latencies: list[float],
    plans_per_s: float,
    verified_ratio: float,
    makespans: list[int],
    volumes: list[int],
    peak_rss_mb: float,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports, by name and unit."""
    return {
        "setup_s": (setup_s, "s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.p90": (p90(latencies), "s"),
        "plans_per_s": (plans_per_s, "1/s"),
        "verified_ratio": (verified_ratio, "ratio"),
        "makespan_geomean_cycles": (geomean(makespans), "cycles"),
        "volume_geomean_bits": (geomean(volumes), "bits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
