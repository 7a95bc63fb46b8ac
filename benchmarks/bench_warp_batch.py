"""Warp-cohort wall-clock benchmark — the batched executor payoff.

Launches with many resident warps are where cohort scheduling wins: all
warps sharing a pc execute as ONE stacked ``(n_warps, 32)`` NumPy op —
one ``DecodedOp`` dispatch, one operand gather, one injection probe —
instead of ``n_warps`` separate interpreter steps.  ``--no-warp-batch``
(``warp_batch=False``) is the serial one-warp-at-a-time decoded loop.

The catalog's 151 programs are all ``grid_dim=1`` (1-2 warps), so this
bench builds its own >= 4-warp workloads via :func:`make_compute_program`
covering straight-line code, divergence, shared-memory reductions, and
FP64.  Each program is built once, then both engines re-run its launch
schedule through a single :class:`~repro.api.Session`, asserting

- >= 2.0x geomean wall-clock speedup with cohorts enabled, and
- byte-identical exception reports between the two engines.

Honest numbers are recorded in ``results/warp_batch.json`` regardless of
whether the floor holds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time

import pytest

from repro.api import Session
from repro.fpx import FPXDetector
from repro.gpu import Device
from repro.workloads.base import WorkProfile, make_compute_program
from conftest import save_artifact

#: Multi-warp workloads (8 blocks each — 8-16 resident warps) with enough
#: schedule re-runs per timed measurement to dwarf scheduler jitter.
PROFILES = {
    "mw-straight": (WorkProfile(stmts=24, grid_dim=8), 6),
    "mw-divergent": (WorkProfile(stmts=24, grid_dim=8, divergent=True), 6),
    "mw-reduction": (WorkProfile(stmts=20, grid_dim=8, reduction=True,
                                 block_dim=64), 4),
    "mw-fp64": (WorkProfile(stmts=24, grid_dim=8, fp64_frac=0.3), 6),
}

QUICK = bool(os.environ.get("BENCH_QUICK"))
TRIALS = 1 if QUICK else 3
SPEEDUP_FLOOR = 1.0 if QUICK else 2.0


def _programs():
    return [(name, make_compute_program(name, "warp-batch-bench", prof,
                                        seed=i), rounds)
            for i, (name, (prof, rounds)) in enumerate(sorted(
                PROFILES.items()))]


def _timed_run(program, rounds: int, warp_batch: bool) -> tuple[float, str]:
    """One timed measurement: ``rounds`` re-runs of the workload's
    schedule through a single session."""
    device = Device()
    specs = program.build(device)
    tool = FPXDetector()
    session = Session(tool, device=device, warp_batch=warp_batch)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            session.run_schedule(specs)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, "\n".join(tool.report().lines())


def _measure(program, rounds: int) -> dict:
    """Best-of-``TRIALS`` for both engines, interleaved so a load spike
    hits cohort and serial measurements alike."""
    fast = slow = math.inf
    for _ in range(TRIALS):
        t, fast_report = _timed_run(program, rounds, True)
        fast = min(fast, t)
        t, slow_report = _timed_run(program, rounds, False)
        slow = min(slow, t)
    return {
        "cohort_s": fast,
        "serial_s": slow,
        "speedup": slow / fast,
        "reports_identical": fast_report == slow_report,
    }


@pytest.mark.benchmark(group="warp-batch")
def test_warp_batch_speedup(benchmark, results_dir):
    programs = _programs()

    def sweep():
        return {name: _measure(program, rounds)
                for name, program, rounds in programs}

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    geomean = math.exp(sum(math.log(r["speedup"]) for r in rows.values())
                       / len(rows))
    bench = {"bench": "warp_batch", "quick": QUICK,
             "rounds": {name: rounds for name, _, rounds in programs},
             "programs": rows, "geomean_speedup": geomean}
    save_artifact(results_dir, "warp_batch.json",
                  json.dumps(bench, indent=2))

    lines = [f"{n:<14} cohort {r['cohort_s']*1e3:8.1f}ms  "
             f"serial {r['serial_s']*1e3:8.1f}ms  {r['speedup']:5.2f}x"
             for n, r in rows.items()]
    print("\n" + "\n".join(lines) + f"\ngeomean {geomean:.2f}x")

    for name, r in rows.items():
        # the cohort engine is a pure perf change: detection is untouched
        assert r["reports_identical"], name
    if math.isnan(geomean):
        # NaN compares False both ways, so a plain floor assert would
        # pass or fail by accident of comparison direction — fail loudly.
        pytest.fail(f"warp-batch geomean is NaN (rows: {rows})")
    assert geomean >= SPEEDUP_FLOOR, \
        f"warp-batch geomean speedup {geomean:.2f}x < {SPEEDUP_FLOOR}x"
