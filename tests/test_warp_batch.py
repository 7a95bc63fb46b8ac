"""Golden equivalence: the warp-cohort batched engine vs serial warps.

The batched executor (``warp_batch=True``, the default) schedules all
warps of a launch by program counter and executes every cohort of warps
sharing a pc as one stacked NumPy operation; ``--no-warp-batch``
(``warp_batch=False``) is the serial one-warp-at-a-time decoded loop.  The
batch engine is a pure performance refactor: these tests hold the two
paths to *bit-identical* observable behaviour — exception reports,
accounting, channel record streams (including order), and raw
register/memory state.
"""

import numpy as np

from repro.api import Session
from repro.binfpe import BinFPE
from repro.fpx import DetectorConfig, FPXDetector
from repro.gpu import Device, LaunchConfig
from repro.harness import run_analyzer, run_baseline, run_binfpe, \
    run_detector
from repro.nvbit import InstrumentationPlan, LaunchSpec, PlannedInjection
from repro.sass import KernelCode
from repro.workloads import all_programs, program_by_name
from repro.workloads.base import WorkProfile, make_compute_program


def _report_blob(report) -> str:
    return "\n".join(report.lines())


def _stats_tuple(stats):
    return (stats.launches, stats.instrumented_launches,
            stats.warp_instrs, stats.thread_instrs,
            stats.base_cycles, stats.injected_cycles, stats.jit_cycles,
            stats.channel_messages, stats.channel_bytes,
            stats.total_cycles)


def _multi_warp_programs():
    """Synthetic programs with >= 4 warps per launch (the catalog's 151
    programs are all grid_dim=1), covering divergence, shared-memory
    reductions and FP64."""
    shapes = {
        "mw-straight": WorkProfile(stmts=24, grid_dim=8),
        "mw-divergent": WorkProfile(stmts=24, grid_dim=4, divergent=True),
        "mw-reduction": WorkProfile(stmts=20, grid_dim=4, reduction=True,
                                    block_dim=64),
        "mw-fp64": WorkProfile(stmts=24, grid_dim=8, fp64_frac=0.3),
    }
    return [make_compute_program(name, "warp-batch-test", prof, seed=i)
            for i, (name, prof) in enumerate(sorted(shapes.items()))]


class TestGoldenEquivalence:
    def test_detector_identical_on_every_workload(self):
        """Every registered program, both engines, byte-identical."""
        for program in all_programs():
            batched_rep, batched = run_detector(program)
            serial_rep, serial = run_detector(program, warp_batch=False)
            assert batched_rep.total() == serial_rep.total(), program.name
            assert _report_blob(batched_rep) == _report_blob(serial_rep), \
                program.name
            assert batched_rep.occurrences == serial_rep.occurrences, \
                program.name
            assert _stats_tuple(batched) == _stats_tuple(serial), \
                program.name

    def test_baseline_and_binfpe_identical(self):
        for name in ("myocyte", "CuMF-Movielens", "hotspot", "GEMM"):
            program = program_by_name(name)
            batched = run_baseline(program)
            serial = run_baseline(program, warp_batch=False)
            assert _stats_tuple(batched) == _stats_tuple(serial), name
            b_rep, b_st = run_binfpe(program)
            s_rep, s_st = run_binfpe(program, warp_batch=False)
            assert _report_blob(b_rep) == _report_blob(s_rep), name
            assert _stats_tuple(b_st) == _stats_tuple(s_st), name

    def test_multi_warp_launches_identical(self):
        """Launches with many warps — where cohorts actually batch."""
        for program in _multi_warp_programs():
            batched = run_baseline(program)
            serial = run_baseline(program, warp_batch=False)
            assert _stats_tuple(batched) == _stats_tuple(serial), \
                program.name
            for use_gt in (True, False):
                config = DetectorConfig(use_gt=use_gt)
                b_rep, b_st = run_detector(program, config=config)
                s_rep, s_st = run_detector(program, config=config,
                                           warp_batch=False)
                assert _report_blob(b_rep) == _report_blob(s_rep), \
                    program.name
                assert b_rep.occurrences == s_rep.occurrences, program.name
                assert _stats_tuple(b_st) == _stats_tuple(s_st), \
                    program.name
            b_rep, b_st = run_binfpe(program)
            s_rep, s_st = run_binfpe(program, warp_batch=False)
            assert _report_blob(b_rep) == _report_blob(s_rep), program.name
            assert _stats_tuple(b_st) == _stats_tuple(s_st), program.name

    def test_analyzer_identical(self):
        """The analyzer keeps ordered cross-injection state, so it rides
        the automatic serial fallback — results match either way."""
        for name in ("myocyte", "LULESH"):
            program = program_by_name(name)
            b_ana, b_st = run_analyzer(program)
            s_ana, s_st = run_analyzer(program, warp_batch=False)
            assert b_ana.flow_summary() == s_ana.flow_summary(), name
            assert _stats_tuple(b_st) == _stats_tuple(s_st), name


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


def _snapshot_run(warp_batch: bool):
    """Run the sample kernel, capturing full register/predicate state of
    every warp at its last register-writing op plus stored memory."""
    device = Device()
    code = KernelCode.assemble("sample", _SAMPLE)
    # after the LDG every register holds its final value; EXIT (which is
    # never cohort-batched) writes nothing
    probe_pc = len(code) - 2
    snaps = {}

    def snap(ictx):
        w = ictx.warp
        snaps[(w.block_id, w.warp_id)] = (w.regs.copy(), w.preds.copy())

    def snap_cohort(cctx):
        for i in range(cctx.n):
            cctx.defer(i, snap)

    plan = InstrumentationPlan("snap", code.name, (
        PlannedInjection(probe_pc, "after", snap, cohort_fn=snap_cohort),))
    session = Session(_PlanTool(plan), device=device, warp_batch=warp_batch)
    stats = session.run_schedule([LaunchSpec(
        code, LaunchConfig(grid_dim=2, block_dim=64))])
    mem = device.read_back(0x100, np.uint32, 64)
    return snaps, mem, stats


class _PlanTool:
    """Minimal tool wrapper around one fixed plan."""

    name = "snap"
    dedups_channel_messages = False

    def __init__(self, plan):
        self._plan = plan

    def on_context_start(self, run):
        pass

    def should_instrument(self, kernel_name):
        return True

    def plan_kernel(self, code):
        return self._plan

    def receive(self, messages):
        pass

    def on_program_end(self):
        pass


class TestRegisterStateBitIdentical:
    def test_register_predicate_and_memory_state(self):
        b_snaps, b_mem, b_stats = _snapshot_run(True)
        s_snaps, s_mem, s_stats = _snapshot_run(False)
        assert b_snaps.keys() == s_snaps.keys()
        assert len(b_snaps) == 4  # 2 blocks x 2 warps
        for key in s_snaps:
            bregs, bpreds = b_snaps[key]
            sregs, spreds = s_snaps[key]
            np.testing.assert_array_equal(bregs, sregs, err_msg=str(key))
            np.testing.assert_array_equal(bpreds, spreds,
                                          err_msg=str(key))
        np.testing.assert_array_equal(b_mem, s_mem)
        assert b_stats.warp_instrs == s_stats.warp_instrs
        assert b_stats.thread_instrs == s_stats.thread_instrs
        assert b_stats.base_cycles == s_stats.base_cycles
        assert b_stats.injected_cycles == s_stats.injected_cycles


# Every lane overflows (INF) and the RCP-of-zero adds a DIV0, so both
# tools emit a dense, multi-warp channel stream.
_EXC = """
    S2R R0, SR_TID.X ;
    I2F R1, R0 ;
    FADD R2, R1, 3e38 ;
    FMUL R3, R2, 2.0 ;
    MUFU.RCP R4, R31 ;
    EXIT ;
"""


class _RecordingDetector(FPXDetector):
    def __init__(self, config=None):
        super().__init__(config)
        self.raw = []

    def receive(self, messages):
        messages = list(messages)
        self.raw.extend(messages)
        super().receive(messages)


class _RecordingBinFPE(BinFPE):
    def __init__(self):
        super().__init__()
        self.raw = []

    def receive(self, messages):
        messages = list(messages)
        self.raw.extend(messages)
        super().receive(messages)


def _channel_stream(tool, warp_batch: bool):
    session = Session(tool, device=Device(), warp_batch=warp_batch)
    code = KernelCode.assemble("exc", _EXC)
    session.run_schedule([LaunchSpec(
        code, LaunchConfig(grid_dim=3, block_dim=64))])
    return tool.raw


class TestChannelStreamOrder:
    """The raw channel record stream — content AND order — matches the
    serial engine's canonical (block, barrier-phase, warp, pc) order."""

    def test_detector_stream_identical(self):
        for use_gt in (True, False):
            config = DetectorConfig(use_gt=use_gt)
            batched = _channel_stream(_RecordingDetector(config), True)
            serial = _channel_stream(_RecordingDetector(config), False)
            assert batched, "expected a non-empty record stream"
            assert batched == serial

    def test_binfpe_stream_identical(self):
        batched = _channel_stream(_RecordingBinFPE(), True)
        serial = _channel_stream(_RecordingBinFPE(), False)
        assert batched, "expected a non-empty record stream"
        assert batched == serial
