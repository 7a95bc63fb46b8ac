"""Shadow-plane overhead — "free when off", measured and gated.

The shadow-precision plane's contract is that a session constructed
without ``shadow=`` pays nothing for the feature existing: the disabled
path is one ``shadow is not None`` branch per executed warp
instruction, the slot tables are built lazily on first shadow use, and
no shadow arrays are ever allocated.  This bench makes the claim
quantitative the same way ``bench_telemetry_overhead`` does — a direct
wall-clock A/B of two identical off-paths only measures scheduler
noise, so the gate is a *projection*:

- microbenchmark the disabled-path branch (``slots is not None and
  slots[pc] is not None`` with ``slots`` bound to ``None``);
- run a single unrepeated probe launch on the serial engine
  (``warp_batch=False``), where the guard runs exactly once per
  dynamic warp instruction — a count the session's own ``RunStats``
  reports deterministically (a single ``repeat == 1`` launch, so the
  modeled count equals the executed count; the cohort engine
  amortizes the same guard over whole warp cohorts, so gating the
  slowest engine is the conservative choice);
- **gate**: projected disabled-path cost (per-branch cost x dynamic
  count) must stay under 2% of the disabled probe's runtime.

It also reports — without gating, wall-clock noise makes them
informational — the measured shadow-on slowdown on both stacked
paths: the cohort engine (an FP32-heavy detector workload) and the
megabatch engine (an 8-member ``run_batch`` stack).  Shadow-on cost is
real and expected: every FP32 op re-executes in binary64.

Everything lands in ``results/shadow_overhead.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro.api import Session
from repro.compiler import KernelBuilder, compile_kernel
from repro.fpx import DetectorConfig, FPXDetector
from repro.gpu.device import Device, LaunchConfig
from repro.harness.runner import run_detector
from repro.nvbit.runtime import LaunchSpec
from repro.workloads import program_by_name
from conftest import save_artifact

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: FP32-heavy exception program: plenty of FADD/FMUL/FFMA sites for the
#: cohort engine's shadow plane to track.
PROGRAM = "GRAMSCHM"
TRIALS = 2 if QUICK else 4
BRANCH_LOOPS = 20_000 if QUICK else 100_000
MEGABATCH_MEMBERS = 8
#: The gate: projected disabled-path cost as a fraction of runtime.
GATE = 0.02


def _null_branch_cost() -> float:
    """Per-iteration seconds of the disabled-path guard.

    This is the exact shape of the executor's hot-path check: a local
    bound to ``None`` and a slot-table lookup, short-circuiting on the
    first test.  The loop overhead is included, which only makes the
    projection more conservative.
    """
    slots = None
    pc = 0
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(BRANCH_LOOPS):
            if slots is not None and slots[pc] is not None:
                raise AssertionError("unreachable")
        best = min(best, time.perf_counter() - t0)
    return best / BRANCH_LOOPS


def _detector_run_s(shadow) -> float:
    """Wall seconds of one cohort-engine detector run."""
    program = program_by_name(PROGRAM)
    gc.disable()
    try:
        t0 = time.perf_counter()
        if shadow is None:
            run_detector(program)
        else:
            run_detector(program, shadow=shadow)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _stack_kernel(trips: int = 32):
    kb = KernelBuilder("shadow_bench_kernel")
    a = kb.f32_param("a")
    b = kb.f32_param("b")
    out = kb.ptr_param("out")
    acc = kb.let("acc", a * b + 0.125)
    kb.loop(trips, lambda kb_: kb_.assign(acc, acc * 0.75 + b))
    kb.store(out, kb.global_idx(), acc / a)
    return compile_kernel(kb.build())


PROBE_TRIPS = 200 if QUICK else 400
PROBE_BLOCK = 256


def _serial_probe() -> tuple[float, int]:
    """(wall seconds, executed warp instrs) of one serial launch.

    One ``repeat == 1`` launch through the serial engine: its
    ``RunStats.warp_instrs`` is the exact number of times the
    disabled-path guard executed.
    """
    compiled = _stack_kernel(PROBE_TRIPS)
    device = Device()
    out = device.alloc_zeros(4 * PROBE_BLOCK)
    spec = LaunchSpec(compiled.code, LaunchConfig(1, PROBE_BLOCK),
                      tuple(compiled.param_words(a=1.5, b=0.5, out=out)))
    session = Session(FPXDetector(DetectorConfig()), device=device,
                      warp_batch=False)
    gc.disable()
    try:
        t0 = time.perf_counter()
        session.launch(spec)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, session.stats.warp_instrs


def _megabatch_run_s(compiled, shadow) -> float:
    device = Device()
    out = device.alloc_zeros(4 * 32)
    specs = [LaunchSpec(compiled.code, LaunchConfig(1, 32),
                        tuple(compiled.param_words(
                            a=1.5 + m, b=0.5, out=out)))
             for m in range(MEGABATCH_MEMBERS)]
    session = Session(FPXDetector(DetectorConfig()), device=device,
                      shadow=shadow)
    gc.disable()
    try:
        t0 = time.perf_counter()
        session.run_batch(specs)
        return time.perf_counter() - t0
    finally:
        gc.enable()


@pytest.mark.benchmark(group="shadow-overhead")
def test_shadow_off_overhead_under_two_percent(benchmark, results_dir):
    def sweep():
        branch = _null_branch_cost()
        compiled = _stack_kernel()
        serial_off = off = on = mb_off = mb_on = float("inf")
        warp_instrs = 0
        for _ in range(TRIALS):
            elapsed, warp_instrs = _serial_probe()
            serial_off = min(serial_off, elapsed)
        # Warm the cohort/megabatch engines before timing them, then
        # interleave on/off samples so both sides see the same machine.
        _detector_run_s(None)
        _detector_run_s(True)
        _megabatch_run_s(compiled, None)
        _megabatch_run_s(compiled, True)
        for _ in range(TRIALS):
            off = min(off, _detector_run_s(None))
            on = min(on, _detector_run_s(True))
            mb_off = min(mb_off, _megabatch_run_s(compiled, None))
            mb_on = min(mb_on, _megabatch_run_s(compiled, True))
        return branch, warp_instrs, serial_off, off, on, mb_off, mb_on

    (branch, warp_instrs, serial_off, off, on,
     mb_off, mb_on) = benchmark.pedantic(sweep, rounds=1, iterations=1)

    projected = branch * warp_instrs
    off_ratio = projected / serial_off
    bench = {
        "bench": "shadow_overhead",
        "quick": QUICK,
        "program": PROGRAM,
        "probe_warp_instrs": warp_instrs,
        "null_branch_cost_s": branch,
        "serial_probe_disabled_s": serial_off,
        "projected_off_overhead_ratio": off_ratio,
        "cohort_disabled_run_s": off,
        "cohort_shadow_on_run_s": on,
        "cohort_on_vs_off_x": on / off,
        "megabatch_members": MEGABATCH_MEMBERS,
        "megabatch_off_s": mb_off,
        "megabatch_on_s": mb_on,
        "megabatch_on_vs_off_x": mb_on / mb_off,
        "gate": GATE,
    }
    save_artifact(results_dir, "shadow_overhead.json",
                  json.dumps(bench, indent=2))

    print(f"\n{warp_instrs} probe warp instrs; null branch "
          f"{branch * 1e9:.0f}ns; serial probe "
          f"{serial_off * 1e3:.1f}ms"
          f"\nprojected shadow-off overhead {off_ratio:.3%} "
          f"(gate {GATE:.0%})"
          f"\nshadow-on cohort {on / off:.2f}x, "
          f"megabatch {mb_on / mb_off:.2f}x (informational)")

    assert off_ratio < GATE, (
        f"projected shadow-off overhead {off_ratio:.2%} exceeds the "
        f"{GATE:.0%} gate: {warp_instrs} branches x {branch * 1e9:.0f}ns "
        f"against a {serial_off * 1e3:.1f}ms probe — the disabled path "
        f"has grown a hot-path cost")
