"""Unit tests for the decode pipeline: caches, plans, fingerprints,
integer semantics and fused-plan op sharing."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpu import Device, FrameKind, LaunchConfig, decode_program, \
    fuse_plan
from repro.gpu.executor import ExecutionError
from repro.gpu.warp import FULL_MASK, WARP_SIZE, CohortView, StackFrame, \
    Warp, WarpSet
from repro.binfpe import BinFPE
from repro.fpx import AnalyzerConfig, FPXAnalyzer
from repro.fpx import DetectorConfig, FPXDetector
from repro.nvbit import InstrumentationPlan, LaunchSpec, PlannedInjection, \
    SassTracer
from repro.sass import KernelCode
from repro.sass.operands import RZ, OperandType
from repro.telemetry import metrics_snapshot, telemetry_session
from repro.telemetry.names import CTR_DECODE_CACHE_HIT, \
    CTR_DECODE_CACHE_MISS
from tests.util import make_runtime

KERNEL = """
    S2R R0, SR_TID.X ;
    I2F R1, R0 ;
    FMUL R2, R1, 2.0 ;
    FADD R3, R2, -1.0 ;
    EXIT ;
"""

HALF_KERNEL = """
    MOV32I R1, 0x3c003c00 ;
    HADD2 R2, R1, R1 ;
    EXIT ;
"""


GOLDEN = Path(__file__).parent / "golden" / "engine_reference.json"


def _code(name="k"):
    return KernelCode.assemble(name, KERNEL)


class TestDecodeProgram:
    def test_decode_memoised_on_code_object(self):
        code = _code()
        assert decode_program(code) is decode_program(code)

    def test_separate_code_objects_decode_separately(self):
        assert decode_program(_code()) is not decode_program(_code())

    def test_ops_mirror_instructions(self):
        code = _code()
        prog = decode_program(code)
        assert len(prog) == len(code)
        assert [op.pc for op in prog.ops] == list(range(len(code)))
        assert not prog.instrumented
        assert all(op.before == () and op.after == () for op in prog.ops)

    def test_fuse_attaches_injections_and_marks_instrumented(self):
        code = _code()
        plan = InstrumentationPlan("t", code.name, (
            PlannedInjection(2, "after", lambda ictx: None),
            PlannedInjection(2, "before", lambda ictx: None),))
        fused = fuse_plan(decode_program(code), [(0, plan)])
        assert fused.instrumented
        assert fused.plan_fingerprint == plan.fingerprint
        assert len(fused.ops[2].before) == 1
        assert len(fused.ops[2].after) == 1
        assert fused.ops[1].before == () and fused.ops[1].after == ()
        # the bare program is untouched
        assert not decode_program(code).instrumented

    def test_measurement_renders_each_instruction_once(self, monkeypatch):
        # Fingerprint, site registries and plans all read the kernel's
        # memoised SASS lines; nothing renders an instruction twice.
        from repro.harness.runner import measure_slowdowns
        from repro.sass.instruction import Instruction
        from repro.workloads import program_by_name
        render = Instruction.getSASS
        rendered = []

        def counting(instr):
            rendered.append(instr)
            return render(instr)

        monkeypatch.setattr(Instruction, "getSASS", counting)
        measure_slowdowns(program_by_name("GRAMSCHM"))
        counts = {}
        for instr in rendered:
            counts[id(instr)] = counts.get(id(instr), 0) + 1
        assert rendered and max(counts.values()) == 1


class TestDecodeCache:
    def test_hit_miss_counters(self):
        code = _code()
        spec = LaunchSpec(code, LaunchConfig(1, 32), repeat=4,
                          stateful=True)
        with telemetry_session() as tel:
            runtime = make_runtime(Device(), SassTracer())
            runtime.run_program([spec])
            snap = metrics_snapshot(tel)["counters"]
        # one miss for the (kernel, plan) pair; every relaunch hits
        assert snap[CTR_DECODE_CACHE_MISS] == 1
        assert snap[CTR_DECODE_CACHE_HIT] == 3

    def test_identical_sass_shares_decoded_program(self):
        # two textually identical kernels fingerprint equal, so a second
        # runtime-level decode of the same text is a cache hit
        a = KernelCode.assemble("k", KERNEL)
        b = KernelCode.assemble("k", KERNEL)
        assert a.fingerprint() == b.fingerprint()
        with telemetry_session() as tel:
            runtime = make_runtime(Device())
            runtime.run_program([LaunchSpec(a, LaunchConfig(1, 32)),
                                 LaunchSpec(b, LaunchConfig(1, 32))])
            snap = metrics_snapshot(tel)["counters"]
        assert snap[CTR_DECODE_CACHE_MISS] == 1
        assert snap[CTR_DECODE_CACHE_HIT] == 1


class TestPlanFingerprints:
    def test_stable_across_tool_instances(self):
        code = _code()
        p1 = FPXDetector().plan_kernel(code)
        p2 = FPXDetector().plan_kernel(code)
        assert p1.fingerprint == p2.fingerprint

    def test_config_changes_change_the_fingerprint(self):
        code = KernelCode.assemble("h", HALF_KERNEL)
        with_fp16 = FPXDetector(DetectorConfig(check_fp16=True))
        without = FPXDetector(DetectorConfig(check_fp16=False))
        assert with_fp16.plan_kernel(code).fingerprint != \
            without.plan_kernel(code).fingerprint

    def test_plan_round_trips_to_hooks(self):
        code = _code()
        plan = FPXDetector().plan_kernel(code)
        hooks = plan.to_hooks()
        assert len(hooks) == len(plan)
        assert all(inj.when == "after" for _, inj in hooks)

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            PlannedInjection(0, "during", lambda ictx: None)


class TestFusedInjectionsFire:
    def test_tracer_sees_identical_stream_on_both_paths(self):
        """The tracer's fused probes see the stream frozen in the engine
        reference golden, through the runtime and through a bare device
        launch of the fused program (which replays its own emissions)."""
        want = json.loads(GOLDEN.read_text())["tracer"]
        config = LaunchConfig(2, 64)

        tracer = SassTracer(capture_values=True)
        make_runtime(Device(), tracer).run_program(
            [LaunchSpec(_code(), config)])
        assert tracer.dump().splitlines() == want

        tracer = SassTracer(capture_values=True)
        code = _code()
        fused = fuse_plan(decode_program(code),
                          [(0, tracer.plan_kernel(code))])
        Device()._launch_kernel(code, config, decoded=fused)
        assert tracer.dump().splitlines() == want


class TestFrameKind:
    def test_legacy_strings_coerced(self):
        frame = StackFrame("SSY", 3, np.ones(32, dtype=bool))
        assert frame.kind is FrameKind.SSY
        assert frame.kind == "SSY"  # str-enum keeps old comparisons alive

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            StackFrame("BOGUS", 0, np.ones(32, dtype=bool))


class TestUnknownOpcodeContext:
    BAD = """
        MOV32I R1, 0x7 ;
        LOP3.LUT R2, R1, R1, RZ, 0xc0 ;
        EXIT ;
    """

    def _run(self, predecoded):
        device = Device()
        code = KernelCode.assemble("void my_kernel(float*)", self.BAD)
        if predecoded:
            return device._launch_kernel(code, LaunchConfig(1, 32),
                                         decoded=decode_program(code))
        return device._launch_kernel(code, LaunchConfig(1, 32))

    @pytest.mark.parametrize("predecoded", [False, True])
    def test_error_names_kernel_pc_and_sass(self, predecoded, monkeypatch):
        """Both ways into a launch decode first (the caller, or the
        device for a launch given no program) and name the bad op."""
        from repro.gpu import decode
        monkeypatch.delitem(decode._DECODERS, "LOP3")
        with pytest.raises(ExecutionError) as exc:
            self._run(predecoded)
        msg = str(exc.value)
        assert "void my_kernel(float*)" in msg
        assert "no semantics for opcode LOP3" in msg
        assert "pc 1" in msg
        assert "LOP3.LUT R2, R1, R1, RZ" in msg


#: Integer edge operands: zero, one, the sign boundary and all-ones.
_EDGES = np.array([0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0x80000001,
                   0xFFFFFFFE, 0xFFFFFFFF, 0x10000, 0xFFFF, 0x12345678,
                   0xDEADBEEF, 0x55555555, 0xAAAAAAAA, 0x00010001],
                  dtype=np.uint32)


def _u64_reference(opcode, srcs):
    """The uint64-then-mask computation the wrapping uint32 one must
    reproduce (negation already applied to ``srcs``, as ``src_u32``
    does)."""
    wide = [s.astype(np.uint64) for s in srcs]
    if opcode == "IMAD":
        total = wide[0] * wide[1] + (wide[2] if len(wide) > 2 else 0)
    else:
        total = sum(wide[1:], wide[0])
    return (total & np.uint64(0xFFFFFFFF)).astype(np.uint32)


class TestWrappingIntegerOps:
    """Non-WIDE IMAD and IADD3 compute in wrapping uint32; the low word
    must equal the uint64 reference on edge operands."""

    @pytest.mark.parametrize("sass", [
        "IMAD R4, R1, R2, R3 ;",
        "IMAD R4, -R1, R2, -R3 ;",
        "IMAD R4, R1, -R2 ;",
        "IMAD R4, R1, 0xffffffff, R3 ;",
        "IADD3 R4, R1, R2, R3 ;",
        "IADD3 R4, -R1, R2, -R3 ;",
        "IADD3 R4, R1, -0x1, RZ ;",
        "IADD3 R4, R1, R2 ;",
    ])
    def test_low_word_matches_u64_reference(self, sass):
        code = KernelCode.assemble("k", sass + "\nEXIT ;")
        op = decode_program(code).ops[0]
        instr = code.instructions[0]
        wset = WarpSet(2)
        n_edges = len(_EDGES)
        for w in range(2):
            for r in (1, 2, 3):
                # every ordered pair of edges meets across rows/lanes
                wset.regs[w, r] = np.resize(
                    np.roll(_EDGES, (r - 1) * (w * 2 + 1)), WARP_SIZE)
        wset.regs[1, 2, n_edges:] = _EDGES[::-1]

        def operands(row):
            out = []
            for o in instr.source_operands():
                if o.type is OperandType.REG:
                    v = wset.regs[row, o.num].copy() if o.num != RZ \
                        else np.zeros(WARP_SIZE, dtype=np.uint32)
                else:
                    v = np.full(WARP_SIZE, o.ivalue & 0xFFFFFFFF,
                                dtype=np.uint32)
                if o.negated:
                    v = (np.uint32(0) - v).astype(np.uint32)
                out.append(v)
            return out

        want = np.stack([_u64_reference(instr.opcode, operands(row))
                         for row in range(2)])
        # one warp at a time under the shared mask ...
        for row in range(2):
            warp = Warp(row, 0, 0, regs=wset.regs[row].copy(),
                        preds=wset.preds[row].copy())
            op.execute(SimpleNamespace(warp=warp), FULL_MASK)
            assert np.array_equal(warp.regs[4], want[row])
        # ... and as one two-warp cohort
        view = CohortView(wset, np.arange(2))
        op.execute(SimpleNamespace(warp=view), view.full_mask)
        assert np.array_equal(wset.regs[:, 4], want)


class TestFusePlanSharing:
    """``fuse_plan`` keeps the bare decode's op object at every pc that
    carries no injection, and its cohort readiness is what each tool's
    probes allow."""

    @pytest.mark.parametrize("tool, cohort_ready", [
        (FPXDetector(), True),
        (BinFPE(), True),
        (FPXAnalyzer(AnalyzerConfig()), False),
    ], ids=["detector", "binfpe", "analyzer"])
    def test_uninjected_ops_are_the_bare_ops(self, tool, cohort_ready):
        code = KernelCode.assemble("k", KERNEL + HALF_KERNEL)
        bare = decode_program(code)
        plan = tool.plan_kernel(code)
        fused = fuse_plan(bare, [(0, plan)])
        injected = {e.pc for e in plan.entries}
        assert injected and len(injected) < len(bare)
        for op, bare_op in zip(fused.ops, bare.ops):
            if op.pc in injected:
                assert op is not bare_op
                assert op.before or op.after
                assert op.execute is bare_op.execute
            else:
                assert op is bare_op
        assert fused.cohort_ready is cohort_ready
        assert bare.cohort_ready and not any(
            op.before or op.after for op in bare.ops)

    @staticmethod
    def _fold(bare, plans):
        """The per-observer fold the one-pass overlay replaced: each
        observer's injections appended to the previous observers'."""
        before = [op.before for op in bare.ops]
        after = [op.after for op in bare.ops]
        tag = None
        for observer, plan in plans:
            for entry in plan.entries:
                slots = before if entry.when == "before" else after
                slots[entry.pc] += (entry.to_injection(observer),)
            part = plan.fingerprint if observer == 0 \
                else f"{observer}:{plan.fingerprint}"
            tag = part if tag is None else f"{tag}|{part}"
        cohort_ready = all(
            op.vectorizable and all(inj.cohort_fn is not None
                                    for inj in b + a)
            for op, b, a in zip(bare.ops, before, after) if b or a)
        return before, after, tag, cohort_ready

    @pytest.mark.parametrize("name", ["GRAMSCHM", "cfd", "CuMF-Movielens",
                                      "SRU-Example", "myocyte"])
    @pytest.mark.parametrize("observers", [
        # the Figure 4/5 set: baseline, BinFPE, FPX w/o GT, FPX w/ GT
        lambda: [None, BinFPE(), FPXDetector(DetectorConfig(use_gt=False)),
                 FPXDetector(DetectorConfig(use_gt=True))],
        # before-phase probes and a tool without cohort probes
        lambda: [FPXAnalyzer(AnalyzerConfig()), None, FPXDetector()],
    ], ids=["fig45", "with-analyzer"])
    def test_one_pass_overlay_equals_per_observer_fold(self, name,
                                                       observers):
        from repro.harness.runner import build_program
        from repro.workloads import program_by_name
        tools = observers()
        built = build_program(program_by_name(name))
        for spec in built.schedule:
            bare = decode_program(spec.code)
            plans = [(i, tool.plan_kernel(spec.code))
                     for i, tool in enumerate(tools) if tool is not None]
            fused = fuse_plan(bare, plans)
            before, after, tag, cohort_ready = self._fold(bare, plans)
            assert [op.before for op in fused.ops] == before
            assert [op.after for op in fused.ops] == after
            assert fused.plan_fingerprint == tag
            assert fused.cohort_ready is cohort_ready
            for op, bare_op in zip(fused.ops, bare.ops):
                if op.before or op.after:
                    assert op is not bare_op
                    assert op.execute is bare_op.execute
                else:
                    assert op is bare_op

    def test_injection_on_a_serial_only_op_is_not_cohort_ready(self):
        code = _code()
        plan = InstrumentationPlan("t", code.name, (
            PlannedInjection(len(code) - 1, "before", lambda ictx: None,
                             cohort_fn=lambda cctx: None),))
        fused = fuse_plan(decode_program(code), [(0, plan)])
        assert not fused.cohort_ready
        assert fused.ops[0] is decode_program(code).ops[0]
