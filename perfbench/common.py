"""Shared pieces of the workloads: timing loop, seeds, sampling, memory."""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, port files and traces; inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")

#: How many times each run repeats its set-up to report a median.
SETUP_REPEATS = 3


def derive(seed: int, *labels: Any) -> int:
    """A 32-bit seed derived from the run seed and labels (stable)."""
    return random.Random(repr((seed,) + labels)).getrandbits(32)


def child_env() -> dict[str, str]:
    """Environment for helper processes: the program's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_seconds(modules: str) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   env=child_env(), check=True)
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int | str = "self") -> list[int]:
    """Every live descendant process id of ``pid``."""
    found: list[int] = []
    pending = [str(pid)]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="ascii") as handle:
                    children = handle.read().split()
            except OSError:
                continue
            for child in children:
                found.append(int(child))
                pending.append(child)
    return found


def pin_to_one_cpu(pid: int | str = "self") -> None:
    """Move every thread of a process and its descendants onto one CPU.

    The timed phase runs pinned.  On a small VM a wake-up that lands on an
    idle vCPU costs milliseconds, and how often that happens, rather than
    the program, then sets the figures: warm fleet throughput swung
    between 150 and 420 requests/s across back-to-back runs unpinned, and
    held within 5% pinned.  Threads started later inherit the CPU.

    The load generator shares that CPU with the program.  Pinning the two
    to separate CPUs brings the cross-CPU wake-ups back on every request:
    over five seeds warm fleet throughput then ranged from 271 to 409
    requests/s (quartile spread 0.39).  So the serving figures are for
    one CPU, and parallelism across the scheduler's process pools is not
    measured.
    """
    cpu = {max(os.sched_getaffinity(0))}
    for process in [str(pid), *map(str, descendants(pid))]:
        try:
            tasks = os.listdir(f"/proc/{process}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                os.sched_setaffinity(int(task), cpu)
            except OSError:
                pass


def tree_peak_rss_mb(pid: int | str = "self") -> float:
    """Sum of VmHWM over a process and its live descendants."""
    return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in descendants(pid))


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    timed_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: Per-layer metrics of a traced run, and extra detail for the trace file.
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def fail(self, error: BaseException) -> None:
        name = type(error).__name__
        self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def end_to_end(self) -> dict[str, float]:
        ms = [1e3 * value for value in self.latencies_s]
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_per_s": len(self.latencies_s) / self.timed_s,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": percentile(ms, 0.90),
            "peak_rss_mb": self.peak_rss_mb,
        }


def timed_rounds(seconds: float, run_round: Callable[[], None]) -> None:
    """Run whole rounds for about ``seconds``.

    A round starts only when the previous round's length says it will end
    within ``seconds``, so every run attempts whole rounds of the same
    operations (and at least one).
    """
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run_round()
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return
