"""Golden equivalence: every engine against the frozen engine reference.

``tests/golden/engine_reference.json`` freezes what the per-instruction
dict-dispatch interpreter, the simulator's original engine, observed.
It was captured from that interpreter on a copy of commit ``032d5b9``,
the last one that had it, after the tests there holding it equal to the
decoded pipeline had passed, by running the helpers below over the same
inputs (the runners and launches switched to the interpreter, the
probes passed as the launch's hook list):

- for each of the 151 registered programs, the detector's report lines,
  occurrences and 10-field stats tuple;
- baseline stats and BinFPE reports for four programs;
- the ``_SAMPLE`` kernel's per-warp register and predicate state after
  its last instruction before EXIT, its stored memory region and its
  stats;
- the :class:`~repro.nvbit.SassTracer` stream of a small kernel
  (``tests/test_decode.py`` holds the tracer to it).

Both in-process engines a launch can take, the serial decoded loop
(``warp_batch=False``) and the default warp-cohort engine, are held to
it byte for byte.  The interpreter shared every numeric kernel, the SFU,
``Warp`` and the memory model with the decoded closures, so it was no
independent reference; the independent one is the pure-Python oracle
(:mod:`repro.conformance.oracle`).  This file pins the observations it
made instead.
"""

import json
from pathlib import Path

import numpy as np

from repro.gpu import Device, LaunchConfig, decode_program, fuse_plan
from repro.harness import run_baseline, run_binfpe, run_detector
from repro.nvbit import InstrumentationPlan, PlannedInjection
from repro.sass import KernelCode
from repro.workloads import all_programs, program_by_name
from repro.workloads.registry import registry_key

GOLDEN = json.loads((Path(__file__).parent / "golden"
                     / "engine_reference.json").read_text())

#: The engines held to the golden, as ``warp_batch`` values.
ENGINES = {"decoded": False, "cohort": True}


def _stats_tuple(stats) -> list:
    return [stats.launches, stats.instrumented_launches,
            stats.warp_instrs, stats.thread_instrs,
            stats.base_cycles, stats.injected_cycles, stats.jit_cycles,
            stats.channel_messages, stats.channel_bytes,
            stats.total_cycles]


def _report_entry(report, stats) -> dict:
    return {"lines": report.lines(),
            "occurrences": sorted([int(k), int(v)]
                                  for k, v in report.occurrences.items()),
            "stats": _stats_tuple(stats)}


class TestGoldenEquivalence:
    def test_detector_identical_on_every_workload(self):
        """Every registered program, both engines, byte-identical to
        the golden report, occurrences and stats."""
        programs = all_programs()
        assert len(programs) == len(GOLDEN["detector"]) == 151
        for engine, warp_batch in ENGINES.items():
            for program in programs:
                key = registry_key(program)
                got = _report_entry(*run_detector(program,
                                                  warp_batch=warp_batch))
                assert got == GOLDEN["detector"][key], (engine, key)

    def test_baseline_and_binfpe_identical(self):
        for engine, warp_batch in ENGINES.items():
            for name, want in GOLDEN["binfpe"].items():
                program = program_by_name(name)
                base = run_baseline(program, warp_batch=warp_batch)
                assert _stats_tuple(base) == GOLDEN["baseline"][name], \
                    (engine, name)
                report, stats = run_binfpe(program, warp_batch=warp_batch)
                assert {"lines": report.lines(),
                        "stats": _stats_tuple(stats)} == want, (engine, name)


# A kernel touching most of the ISA: special registers, conversions,
# FTZ, FMA, SFU, divergence (SSY/SYNC), predicates, integer ALU, wide
# multiplies, FP64 pairs, packed FP16, and per-lane global memory.
_SAMPLE = """
    S2R R0, SR_TID.X ;
    I2F R1, R0 ;
    FADD R2, R1, 0.5 ;
    FMUL.FTZ R3, R2, 1e-38 ;
    FFMA R4, R2, R2, -R3 ;
    MUFU.RCP R5, R2 ;
    ISETP.GE.AND P0, PT, R0, 0x10, PT ;
    SSY reconv ;
@P0 BRA high ;
    FADD R6, R2, 1.0 ;
    SYNC ;
high:
    FADD R6, R2, 2.0 ;
    SYNC ;
reconv:
    FMNMX R7, R6, R2, PT ;
    FSETP.GT.AND P1, PT, R7, RZ, PT ;
    SEL R8, R0, RZ, P1 ;
    IMAD.WIDE R10, R0, R8, RZ ;
    LOP3.LUT R12, R0, R8, RZ, 0x3c ;
    SHF.R R13, R12, 0x2, RZ ;
    IADD3 R14, R0, R8, R13 ;
    F2F.F64.F32 R16, R2 ;
    DADD R18, R16, 0.25 ;
    DMUL R20, R18, R18 ;
    F2I R22, R7 ;
    HADD2 R23, R0, R8 ;
    MOV32I R25, 0x100 ;
    IMAD R26, R0, 0x4, R25 ;
    STG R4, [R26] ;
    LDG R27, [R26] ;
    EXIT ;
"""

_SAMPLE_CONFIG = LaunchConfig(grid_dim=2, block_dim=64)


def _sample_run(warp_batch: bool) -> tuple[dict, set]:
    """Run the sample kernel with a probe after its LDG (the last op
    before EXIT) copying each warp's registers and predicates, in the
    golden's layout: nonzero register rows by number, and each
    predicate's 32 lanes as a little-endian bit mask.  Also returns
    which probe kinds fired (``"warp"``, ``"cohort"``)."""
    device = Device()
    code = KernelCode.assemble("sample", _SAMPLE)
    snap_pc = GOLDEN["sample"]["snap_pc"]
    assert code.instructions[snap_pc].opcode == "LDG"
    warps_per_block = _SAMPLE_CONFIG.block_dim // 32
    snaps = {}
    probes = set()

    def keep(block, warp, regs, preds):
        snaps[f"{block}.{warp}"] = {
            "regs": {str(r): [int(v) for v in regs[r]]
                     for r in range(regs.shape[0]) if regs[r].any()},
            "preds": [int(np.packbits(p, bitorder="little")
                          .view(np.uint32)[0]) for p in preds]}

    def snap(ictx):
        probes.add("warp")
        w = ictx.warp
        keep(w.block_id, w.warp_id, w.regs, w.preds)

    def snap_cohort(cctx):
        probes.add("cohort")
        view = cctx.cohort
        for i in np.arange(view.wset.n_warps)[view.sel]:
            block, warp = divmod(int(i), warps_per_block)
            keep(block, warp, view.wset.regs[i], view.wset.preds[i])

    plan = InstrumentationPlan("snap", code.name, (
        PlannedInjection(snap_pc, "after", snap, cohort_fn=snap_cohort),))
    decoded = fuse_plan(decode_program(code), [(0, plan)])
    assert decoded.cohort_ready
    stats = device._launch_kernel(code, _SAMPLE_CONFIG, decoded=decoded,
                                  warp_batch=warp_batch)
    return {"snap_pc": snap_pc,
            "warps": dict(sorted(snaps.items())),
            "memory": [int(v) for v in device.read_back(0x100, np.uint32,
                                                        64)],
            "stats": {"warp_instrs": stats.warp_instrs,
                      "thread_instrs": stats.thread_instrs,
                      "base_cycles": stats.base_cycles,
                      "injected_calls": stats.injected_calls,
                      "instrumented": stats.instrumented}}, probes


class TestRegisterStateBitIdentical:
    def test_register_predicate_and_memory_state(self):
        want = GOLDEN["sample"]
        for engine, warp_batch in ENGINES.items():
            got, probes = _sample_run(warp_batch)
            assert probes == {"cohort" if warp_batch else "warp"}, engine
            assert got["warps"].keys() == want["warps"].keys(), engine
            for key, state in want["warps"].items():
                assert got["warps"][key] == state, (engine, key)
            assert got["memory"] == want["memory"], engine
            assert got["stats"] == want["stats"], engine
        # a launch with a fused plan counts as instrumented
        assert want["stats"]["instrumented"]
