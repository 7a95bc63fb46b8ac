"""Parallel sweep wall-clock benchmark — serial vs warm worker pool.

Runs the Figure 4 sweep (four tool configurations per program) once on
the legacy serial path, then twice through a persistent worker pool —
a cold first sweep (decode/build caches empty) and a warm second sweep
(the pool's whole reason to exist) — and asserts

- the rendered figure is byte-identical across all paths (the
  deterministic-merge guarantee),
- at ``jobs=1`` the warm pooled sweep costs no more than ~5% over
  serial (the pool must be effectively free when it cannot help), and
- on machines with at least 4 cores, ``jobs=4`` (or better) delivers a
  >= 2.5x wall-clock speedup.

Pool spin-up (worker spawn) is recorded as its own ``warmup_s`` field
rather than folded into sweep time, so the numbers separate the
one-time cost from the steady state.  The measurements land in
``results/parallel_sweep.json`` together with the core count they were
taken on, so a 1-core CI shard records an honest ~1.0x rather than a
vacuous pass.  ``BENCH_QUICK=1`` shrinks the sweep to 20 programs (and
records nothing); ``BENCH_JOBS=N`` pins the worker count.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro.harness import figure4
from repro.harness.parallel import default_jobs
from repro.harness.pool import WorkerPool, pool_available, use_pool
from conftest import bench_jobs, save_artifact

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: the multicore speedup floor only binds where the hardware delivers
SPEEDUP_FLOOR = 2.5
MIN_CORES_FOR_FLOOR = 4
#: at jobs=1 the warm pool must be near-free: no worse than ~5% slower
JOBS1_FLOOR = 0.95


@pytest.mark.benchmark(group="parallel-sweep")
@pytest.mark.skipif(not pool_available(),
                    reason="worker pool unavailable")
def test_parallel_sweep_speedup(benchmark, programs, results_dir):
    sweep_programs = programs[:20] if QUICK else programs
    jobs = bench_jobs()
    cores = default_jobs()

    def measure():
        t0 = time.perf_counter()
        serial = figure4(sweep_programs, jobs=1)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        pool = WorkerPool(jobs)
        warmup_s = time.perf_counter() - t0
        try:
            with use_pool(pool):
                t0 = time.perf_counter()
                cold = figure4(sweep_programs, jobs=jobs)
                cold_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                warm = figure4(sweep_programs, jobs=jobs)
                warm_s = time.perf_counter() - t0
            stats = pool.stats()
        finally:
            pool.shutdown()
        return serial, serial_s, warmup_s, cold, cold_s, warm, warm_s, \
            stats

    serial, serial_s, warmup_s, cold, cold_s, warm, warm_s, stats = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    identical = serial.render() == cold.render() == warm.render()
    if not serial_s or not cold_s or not warm_s:
        pytest.fail(f"degenerate sweep timings: serial {serial_s!r}s, "
                    f"cold {cold_s!r}s, warm {warm_s!r}s")
    speedup = serial_s / warm_s
    floor_binds = (not QUICK and cores >= MIN_CORES_FOR_FLOOR
                   and jobs >= MIN_CORES_FOR_FLOOR)
    bench = {
        "bench": "parallel_sweep",
        "quick": QUICK,
        "programs": len(sweep_programs),
        "cores": cores,
        "jobs": jobs,
        "serial_s": serial_s,
        "warmup_s": warmup_s,
        "pool_cold_s": cold_s,
        "pool_warm_s": warm_s,
        "speedup": speedup,
        "warm_builds": stats.warm_builds,
        "warm_decodes": stats.warm_decodes,
        "arena_bytes": stats.arena_bytes,
        "inline_fallbacks": stats.inline_fallbacks,
        "renders_identical": identical,
        "speedup_floor": SPEEDUP_FLOOR if floor_binds else JOBS1_FLOOR,
    }
    save_artifact(results_dir, "parallel_sweep.json",
                  json.dumps(bench, indent=2))
    print(f"\nserial {serial_s:.1f}s  pool({jobs} jobs) warmup "
          f"{warmup_s:.2f}s cold {cold_s:.1f}s warm {warm_s:.1f}s  "
          f"speedup {speedup:.2f}x  ({cores} cores, "
          f"identical={identical})")

    # the whole point of the deterministic merge: same bytes out
    assert identical
    if math.isnan(speedup):
        # NaN compares False both ways, so the floor gates below would
        # be skipped silently regardless of direction — fail loudly.
        pytest.fail(f"parallel sweep speedup is NaN "
                    f"(serial {serial_s!r}s, warm {warm_s!r}s)")
    if floor_binds:
        assert speedup >= SPEEDUP_FLOOR, \
            f"parallel sweep {speedup:.2f}x < {SPEEDUP_FLOOR}x " \
            f"at jobs={jobs} on {cores} cores"
    else:
        # single-lane floor: the warm pool must not tax a serial-width
        # sweep by more than ~5% (warmup is accounted separately)
        assert speedup >= JOBS1_FLOOR, \
            f"warm pool sweep {speedup:.2f}x < {JOBS1_FLOOR}x " \
            f"at jobs={jobs} on {cores} cores"
