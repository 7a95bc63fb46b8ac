"""Golden equivalence: the decoded pipeline vs the legacy interpreter.

The decode/execute split is a pure performance refactor — ``--no-decode-
cache`` (``decode_cache=False``) runs the original dict-dispatch
interpreter, the default runs decoded micro-op programs.  These tests
hold the two paths to *bit-identical* observable behaviour: exception
reports, accounting, channel traffic, and raw register state.
"""

import numpy as np

from repro.gpu import Device, Injection, LaunchConfig, decode_program, \
    fuse_plan
from repro.harness import run_baseline, run_binfpe, run_detector
from repro.nvbit import InstrumentationPlan, PlannedInjection
from repro.sass import KernelCode
from repro.workloads import all_programs, program_by_name


def _report_blob(report) -> str:
    return "\n".join(report.lines())


def _stats_tuple(stats):
    return (stats.launches, stats.instrumented_launches,
            stats.warp_instrs, stats.thread_instrs,
            stats.base_cycles, stats.injected_cycles, stats.jit_cycles,
            stats.channel_messages, stats.channel_bytes,
            stats.total_cycles)


class TestGoldenEquivalence:
    def test_detector_identical_on_every_workload(self):
        """Every registered program, both paths, byte-identical output."""
        for program in all_programs():
            fast_rep, fast = run_detector(program)
            slow_rep, slow = run_detector(program, decode_cache=False)
            assert fast_rep.total() == slow_rep.total(), program.name
            assert _report_blob(fast_rep) == _report_blob(slow_rep), \
                program.name
            assert fast_rep.occurrences == slow_rep.occurrences, \
                program.name
            assert _stats_tuple(fast) == _stats_tuple(slow), program.name

    def test_baseline_and_binfpe_identical(self):
        for name in ("myocyte", "CuMF-Movielens", "hotspot", "GEMM"):
            program = program_by_name(name)
            fast = run_baseline(program)
            slow = run_baseline(program, decode_cache=False)
            assert _stats_tuple(fast) == _stats_tuple(slow), name
            fast_rep, fast_st = run_binfpe(program)
            slow_rep, slow_st = run_binfpe(program, decode_cache=False)
            assert _report_blob(fast_rep) == _report_blob(slow_rep), name
            assert _stats_tuple(fast_st) == _stats_tuple(slow_st), name


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


def _snapshot_run(decoded_path: bool):
    """Run the sample kernel, capturing full register/predicate state of
    every warp at EXIT plus the stored global-memory region."""
    device = Device()
    code = KernelCode.assemble("sample", _SAMPLE)
    exit_pc = len(code) - 1
    snaps = {}

    def snap(ictx):
        w = ictx.warp
        snaps[(w.block_id, w.warp_id)] = (w.regs.copy(), w.preds.copy())

    config = LaunchConfig(grid_dim=2, block_dim=64)
    if decoded_path:
        plan = InstrumentationPlan("snap", code.name, (
            PlannedInjection(exit_pc, "after", snap),))
        decoded = fuse_plan(decode_program(code), [(0, plan)])
        stats = device._launch_kernel(code, config, decoded=decoded)
    else:
        stats = device._launch_kernel(code, config,
                                  hooks=[(exit_pc,
                                          Injection("after", snap))])
    mem = device.read_back(0x100, np.uint32, 64)
    return snaps, mem, stats


class TestRegisterStateBitIdentical:
    def test_register_predicate_and_memory_state(self):
        fast_snaps, fast_mem, fast_stats = _snapshot_run(True)
        slow_snaps, slow_mem, slow_stats = _snapshot_run(False)
        assert fast_snaps.keys() == slow_snaps.keys()
        for key in slow_snaps:
            fregs, fpreds = fast_snaps[key]
            sregs, spreds = slow_snaps[key]
            np.testing.assert_array_equal(fregs, sregs, err_msg=str(key))
            np.testing.assert_array_equal(fpreds, spreds,
                                          err_msg=str(key))
        np.testing.assert_array_equal(fast_mem, slow_mem)
        assert fast_stats.warp_instrs == slow_stats.warp_instrs
        assert fast_stats.thread_instrs == slow_stats.thread_instrs
        assert fast_stats.base_cycles == slow_stats.base_cycles
        assert fast_stats.injected_calls == slow_stats.injected_calls
        # decoded launches with a fused plan count as instrumented, same
        # as hook-list launches
        assert fast_stats.instrumented and slow_stats.instrumented
