"""Shared pieces of the benchmark runner: op records, latency summaries,
the machine-drift record and the end-of-run leak checks."""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass

__all__ = ["Op", "tail", "p99", "drift_sample", "child_pids",
           "arena_names", "peak_rss_mb", "ms", "stop_resource_tracker"]

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class Op:
    """One timed operation of a workload."""

    key: str
    #: Seconds from the op's due/start time to its checked result.
    latency: float = 0.0
    ok: bool = True
    error: str = ""

    def fail(self, why: str) -> None:
        if self.ok:
            self.ok = False
            self.error = why


def ms(seconds: float) -> float:
    return seconds * 1000.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, beyond)``: the highest nearest-rank
    percentile with at least :data:`TAIL_BEYOND` samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)      # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _steal_jiffies() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def _spin() -> float:
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def drift_sample() -> dict:
    """Steal jiffies and the fixed loop's seconds, taken before and after
    each run.  Recorded beside the metrics, never used to scale them."""
    return {"steal_jiffies": _steal_jiffies(), "spin_s": _spin()}


def child_pids() -> list[int]:
    """Live (non-zombie) child processes of this process."""
    pids = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """Stop and reap the stdlib shared-memory resource tracker, a child
    process the pool's arenas start and Python leaves running until
    exit.  It reports (to stderr) any segment still registered."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def arena_names() -> set[str]:
    """Shared-memory arenas currently present in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith("repro-arena-")}
    except OSError:
        return set()


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of every waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
