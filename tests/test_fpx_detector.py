"""Detector integration tests: Algorithm 1/2/3 on real simulated kernels."""

import numpy as np
import pytest

from repro.fpx import (
    DetectorConfig,
    ExceptionKind,
    FPFormat,
    FPXDetector,
    select_check,
)
from repro.gpu import Device, LaunchConfig
from repro.nvbit import LaunchSpec
from tests.util import make_runtime
from repro.sass import KernelCode, parse_instruction
from repro.sass.fpenc import f64_to_bits


def detect(text, *, name="k", config=None, block=32, launches=1,
           has_source_info=True):
    code = KernelCode.assemble(name, text, has_source_info=has_source_info)
    detector = FPXDetector(config)
    runtime = make_runtime(Device(), detector)
    runtime.run_program([LaunchSpec(code, LaunchConfig(1, block))] * launches)
    return detector, runtime.run


class TestSelectCheck:
    """Algorithm 1 dispatch."""

    def test_mufu_rcp_32(self):
        mode, regs = select_check(parse_instruction("MUFU.RCP R4, R5 ;"))
        assert mode == 2 and regs == (4,)  # check_32_div0(Rdest)

    def test_mufu_rcp64h(self):
        mode, regs = select_check(parse_instruction("MUFU.RCP64H R5, R7 ;"))
        assert mode == 3 and regs == (4, 5)  # check_64_div0(Rd-1, Rd)

    def test_fp32_prefix(self):
        mode, regs = select_check(parse_instruction("FFMA R1, R2, R3, R4 ;"))
        assert mode == 0 and regs == (1,)

    def test_fp64_prefix(self):
        mode, regs = select_check(parse_instruction("DADD R6, R2, R4 ;"))
        assert mode == 1 and regs == (6, 7)  # (Rdest, Rdest+1)

    def test_fsetp_not_instrumented(self):
        i = parse_instruction("FSETP.GT.AND P0, PT, R3, RZ, PT ;")
        assert select_check(i) is None

    def test_fsel_instrumented(self):
        mode, regs = select_check(parse_instruction("FSEL R2, R5, R2, !P6 ;"))
        assert mode == 0 and regs == (2,)


class TestDetectionBasics:
    def test_clean_kernel_reports_nothing(self):
        det, _ = detect("""
            FADD R1, RZ, 1.0 ;
            FMUL R2, R1, 2.0 ;
            DADD R4, RZ, RZ ;
            EXIT ;
        """)
        assert not det.report().has_exceptions()

    def test_fp32_inf_detected(self):
        det, _ = detect("""
            FADD R1, RZ, 3e38 ;
            FADD R2, R1, R1 ;
            EXIT ;
        """)
        rep = det.report()
        assert rep.count(FPFormat.FP32, ExceptionKind.INF) == 1
        assert rep.count(FPFormat.FP32, ExceptionKind.NAN) == 0

    def test_fp32_nan_detected(self):
        det, _ = detect("""
            FADD R1, RZ, +INF ;
            FADD R2, R1, -INF ;
            EXIT ;
        """)
        rep = det.report()
        # R1 gets INF (loc 0), R2 gets INF + (-INF) = NaN (loc 1)
        assert rep.count(FPFormat.FP32, ExceptionKind.INF) == 1
        assert rep.count(FPFormat.FP32, ExceptionKind.NAN) == 1

    def test_fp32_subnormal_detected(self):
        det, _ = detect("""
            FADD R1, RZ, 1e-30 ;
            FMUL R2, R1, 1e-10 ;
            EXIT ;
        """)
        assert det.report().count(FPFormat.FP32, ExceptionKind.SUB) == 1

    def test_div0_at_rcp(self):
        det, _ = detect("""
            MUFU.RCP R1, RZ ;
            EXIT ;
        """)
        rep = det.report()
        assert rep.count(FPFormat.FP32, ExceptionKind.DIV0) == 1
        # the INF in the RCP dest is reported as DIV0, not INF
        assert rep.count(FPFormat.FP32, ExceptionKind.INF) == 0

    def test_fp64_div0_via_rcp64h(self):
        det, _ = detect("""
            MOV R4, RZ ;
            MUFU.RCP64H R5, RZ ;
            EXIT ;
        """)
        assert det.report().count(FPFormat.FP64, ExceptionKind.DIV0) == 1

    def test_fp64_nan_inf(self):
        bits = f64_to_bits(1e308)
        det, _ = detect(f"""
            MOV32I R2, {bits & 0xFFFFFFFF:#x} ;
            MOV32I R3, {bits >> 32:#x} ;
            DADD R4, R2, R2 ;
            DADD R6, R4, -R4 ;
            EXIT ;
        """)
        rep = det.report()
        assert rep.count(FPFormat.FP64, ExceptionKind.INF) == 1
        assert rep.count(FPFormat.FP64, ExceptionKind.NAN) == 1

    def test_nan_through_fsel_detected(self):
        """The control-flow opcode coverage BinFPE lacks."""
        det, _ = detect("""
            FADD R1, RZ, +QNAN ;
            FSEL R2, R1, RZ, PT ;
            EXIT ;
        """)
        rep = det.report()
        fsel_records = [r for r in rep.records
                        if "FSEL" in rep.site_of(r).sass]
        assert len(fsel_records) == 1
        assert fsel_records[0].kind == ExceptionKind.NAN

    def test_predicated_off_lanes_not_checked(self):
        """Instrumentation respects predication: a NaN in a dest register
        written only by predicated-off lanes must not be reported."""
        det, _ = detect("""
            S2R R0, SR_LANEID ;
            ISETP.LT.AND P0, PT, R0, 0x0, PT ;
            FADD R1, RZ, 1.0 ;
        @P0 FADD R1, RZ, +QNAN ;
            EXIT ;
        """)
        assert not det.report().has_exceptions()

    def test_dedup_across_launches(self):
        det, _ = detect("""
            FADD R1, RZ, +INF ;
            EXIT ;
        """, launches=5)
        rep = det.report()
        assert rep.count(FPFormat.FP32, ExceptionKind.INF) == 1
        # but occurrences accumulate in GT (32 lanes x 5 launches)
        key = next(iter(rep.occurrences))
        assert rep.occurrences[key] == 32 * 5

    def test_notification_format_matches_listing6(self):
        det, _ = detect("""
            FADD R1, RZ, +QNAN ;
            EXIT ;
        """, name="ampere_sgemm_32x128_nn", has_source_info=False)
        assert det.notifications == [
            "#GPU-FPX LOC-EXCEP INFO: in kernel [ampere_sgemm_32x128_nn], "
            "NaN found @ /unknown_path in [ampere_sgemm_32x128_nn]:0 [FP32]"
        ]


class TestGTBehaviour:
    def test_with_gt_single_message_for_repeated_exception(self):
        config = DetectorConfig(use_gt=True)
        det, run = detect("""
            MOV32I R0, 0x40 ;
        loop:
            FADD R1, RZ, +INF ;
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA loop ;
            EXIT ;
        """, config=config)
        assert run.channel_messages == 1

    def test_without_gt_many_messages(self):
        config = DetectorConfig(use_gt=False)
        det, run = detect("""
            MOV32I R0, 0x40 ;
        loop:
            FADD R1, RZ, +INF ;
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA loop ;
            EXIT ;
        """, config=config)
        # one message per exceptional thread: 32 lanes x 64 iterations
        assert run.channel_messages == 32 * 64
        # same exceptions found either way
        assert det.report().count(FPFormat.FP32, ExceptionKind.INF) == 1

    def test_gt_alloc_charged_only_with_gt(self):
        _, run_gt = detect("FADD R1, RZ, 1.0 ;\nEXIT ;",
                           config=DetectorConfig(use_gt=True))
        _, run_nogt = detect("FADD R1, RZ, 1.0 ;\nEXIT ;",
                             config=DetectorConfig(use_gt=False))
        assert run_gt.gt_alloc_cycles > 0
        assert run_nogt.gt_alloc_cycles == 0


class TestSelectiveInstrumentation:
    """Algorithm 3."""

    def test_freq_redn_factor_counts(self):
        det = FPXDetector(DetectorConfig(freq_redn_factor=4))
        decisions = [det.should_instrument("k") for _ in range(8)]
        assert decisions == [True, False, False, False,
                             True, False, False, False]

    def test_whitelist(self):
        det = FPXDetector(DetectorConfig(
            kernel_whitelist=frozenset({"hot_kernel"})))
        assert det.should_instrument("hot_kernel")
        assert not det.should_instrument("cold_kernel")

    def test_whitelist_with_sampling(self):
        det = FPXDetector(DetectorConfig(
            kernel_whitelist=frozenset({"a"}), freq_redn_factor=2))
        assert [det.should_instrument("a") for _ in range(4)] == \
            [True, False, True, False]
        assert [det.should_instrument("b") for _ in range(4)] == \
            [False] * 4

    def test_sampling_reduces_jit_cost(self):
        kernel = """
            FADD R1, RZ, 1.0 ;
            EXIT ;
        """
        _, run_full = detect(kernel, launches=64)
        _, run_sampled = detect(
            kernel, launches=64, config=DetectorConfig(freq_redn_factor=16))
        assert run_sampled.instrumented_launches == 4
        assert run_full.instrumented_launches == 64
        assert run_sampled.jit_cycles < run_full.jit_cycles

    def test_sampling_still_detects_persistent_exception(self):
        kernel = """
            FADD R1, RZ, +INF ;
            EXIT ;
        """
        det, _ = detect(kernel, launches=64,
                        config=DetectorConfig(freq_redn_factor=16))
        assert det.report().count(FPFormat.FP32, ExceptionKind.INF) == 1


class TestFP16Extension:
    def test_packed_fp16_overflow(self):
        det, _ = detect("""
            MOV32I R1, 0x7bff7bff ;
            HADD2 R2, R1, R1 ;
            EXIT ;
        """)
        rep = det.report()
        assert rep.count(FPFormat.FP16, ExceptionKind.INF) == 1

    def test_fp16_disabled(self):
        det, _ = detect("""
            MOV32I R1, 0x7bff7bff ;
            HADD2 R2, R1, R1 ;
            EXIT ;
        """, config=DetectorConfig(check_fp16=False))
        assert not det.report().has_exceptions()


class TestFP32Screen:
    """The FP32 probes' one-pass screen flags exactly the lanes the full
    classification calls NaN, INF or subnormal, and a dispatch phase's
    probe context answers it once per register."""

    @staticmethod
    def _agrees(bits):
        from repro.sass.fpenc import (INF, NAN, SUB, classify_f32_bits,
                                      exceptional_f32)

        codes = classify_f32_bits(bits)
        want = (codes == NAN) | (codes == INF) | (codes == SUB)
        return np.array_equal(exceptional_f32(bits), want), int(want.sum())

    def test_every_sign_exponent_mantissa_corner(self):
        exps = list(range(256))
        mants = (0, 1, 0x400000, 0x7FFFFF)
        bits = np.array([(sign << 31) | (exp << 23) | man
                         for sign in (0, 1) for exp in exps
                         for man in mants], dtype=np.uint32)
        ok, flagged = self._agrees(bits)
        assert ok
        # exponent 0xFF: 2 signs x 4 mantissas; exponent 0: 2 x 3 nonzero
        assert flagged == 8 + 6

    def test_random_words(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2 ** 32, size=(64, 32), dtype=np.uint32)
        # plant every class so the random draw cannot miss one
        bits[0, :4] = [0x7F800000, 0xFF800001, 0x00000001, 0x80000000]
        ok, flagged = self._agrees(bits)
        assert ok and flagged >= 3

    def test_masked_off_lanes_do_not_fire(self):
        """Screen and classification see only lanes under the execution
        mask, for an FP32 register and an FP64 pair, on a warp's context
        and on a cohort's."""
        from repro.gpu.executor import CohortInjectionCtx, InjectionCtx
        from repro.gpu.warp import CohortView, Warp, WarpSet

        f32 = np.full(32, 0x3F800000, dtype=np.uint32)  # 1.0f
        f32[7] = 0x7FC00000  # NaN
        lo = np.zeros(32, dtype=np.uint32)
        hi = np.full(32, 0x3FF00000, dtype=np.uint32)  # 1.0
        hi[7] = 0x7FF80000  # NaN
        on = np.ones(32, dtype=bool)
        off = on.copy()
        off[7] = False

        def warp_ctx(mask):
            warp = Warp(0, 0, 0)
            warp.regs[3], warp.regs[4], warp.regs[5] = f32, lo, hi
            return InjectionCtx(None, None, warp, None, mask)

        # the (n, 32) cohort shape
        wset = WarpSet(2)
        wset.regs[:, 3], wset.regs[:, 4], wset.regs[:, 5] = f32, lo, hi

        def cohort_ctx(masks):
            view = CohortView(wset, np.arange(2))
            return CohortInjectionCtx(None, None, view, None, masks)

        for regs in ((3,), (4, 5)):
            assert warp_ctx(on).screen(regs)
            assert warp_ctx(on).classify(regs).tolist() == [31, 1, 0, 0]
            assert not warp_ctx(off).screen(regs)
            assert warp_ctx(off).classify(regs)[1:].tolist() == [0, 0, 0]
            ctx = cohort_ctx(np.stack([off, on]))
            assert ctx.screen(regs)
            assert ctx.classify(regs)[:, 1].tolist() == [0, 1]
            assert not cohort_ctx(np.stack([off, off])).screen(regs)

    #: R3 is clean before the FADD and INF after it; R1 stays 1.0.
    DISPATCH_KERNEL = """
        MOV32I R1, 0x3f800000 ;
        MOV32I R2, 0x7f800000 ;
        FADD R3, R1, R2 ;
        EXIT ;
    """

    @pytest.mark.parametrize("path, block", [
        ("decoded", 32), ("cohort", 64)])
    def test_one_screen_per_register_and_phase(self, path, block):
        from repro.api import EXECUTION_PATHS, Session
        from repro.nvbit import (InstrumentationPlan, NVBitTool,
                                 PlannedInjection)

        seen = []

        def probe(label, reg):
            def fn(ctx):
                seen.append((label, ctx.screen((reg,))))
            return fn

        class Screens(NVBitTool):
            name = "screens"

            def plan_kernel(self, code):
                fadd = 2
                entries = [
                    ("before", "R3 before", 3),
                    ("after", "R1 after", 1),
                    ("after", "R3 after", 3),
                    ("after", "R1 again", 1),
                ]
                return InstrumentationPlan(self.name, code.name, tuple(
                    PlannedInjection(fadd, when, probe(label, reg),
                                     cohort_fn=probe(label, reg))
                    for when, label, reg in entries))

        code = KernelCode.assemble("screens", self.DISPATCH_KERNEL)
        with Session(Screens(), **EXECUTION_PATHS[path]) as session:
            session.run_schedule([LaunchSpec(code, LaunchConfig(1, block))])
        # the cohort engine probes its two warps as one cohort
        assert seen == [("R3 before", False), ("R1 after", False),
                        ("R3 after", True), ("R1 again", False)]


class TestFP64Screen:
    """The FP64 probes' screen, on the two register words of a pair,
    flags exactly the lanes the full classification calls NaN, INF or
    subnormal."""

    @staticmethod
    def _agrees(lo, hi):
        from repro.sass.fpenc import VAL, classify_f64_bits, exceptional_f64

        bits = lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
        want = classify_f64_bits(bits) != VAL
        return np.array_equal(exceptional_f64(lo, hi), want), int(want.sum())

    def test_every_sign_exponent_mantissa_corner(self):
        # mantissa placements: none, low word only, high word only, both
        places = ((0, 0), (1, 0), (0, 1), (0xFFFFFFFF, 0x80000))
        words = [(lo_m, (sign << 31) | (exp << 20) | hi_m)
                 for sign in (0, 1) for exp in (0, 1, 0x7FE, 0x7FF)
                 for lo_m, hi_m in places]
        lo = np.array([w[0] for w in words], dtype=np.uint32)
        hi = np.array([w[1] for w in words], dtype=np.uint32)
        ok, flagged = self._agrees(lo, hi)
        assert ok
        # exponent 0x7FF: 2 signs x 4 placements; exponent 0: 2 x 3 nonzero
        assert flagged == 8 + 6

    def test_random_words(self):
        rng = np.random.default_rng(19)
        lo = rng.integers(0, 2 ** 32, size=(64, 32), dtype=np.uint32)
        hi = rng.integers(0, 2 ** 32, size=(64, 32), dtype=np.uint32)
        # plant every class so the random draw cannot miss one: INF,
        # NaN and subnormal set only in the low word, subnormal set only
        # in the high word, -0, and a clean pair whose low word alone is
        # an FP32 NaN pattern
        hi[0, :6] = [0x7FF00000, 0xFFF00000, 0x00000000, 0x80000001,
                     0x80000000, 0x3FF00000]
        lo[0, :6] = [0, 1, 1, 0, 0, 0x7FC00000]
        ok, flagged = self._agrees(lo, hi)
        assert ok and flagged >= 4


class TestSharedClassification:
    """Observers probing one destination share one screen and one
    classification per register tuple and dispatch phase, and one
    Algorithm-1 site walk per kernel."""

    #: FP32 R2 and FP64 (R8, R9) are clean; FP32 R4 and FP64 (R12, R13)
    #: are INF.
    KERNEL = """
        MOV32I R1, 0x3f800000 ;
        FADD R2, R1, R1 ;
        MOV32I R3, 0x7f800000 ;
        FMUL R4, R3, R1 ;
        MOV32I R6, 0x0 ;
        MOV32I R7, 0x3ff00000 ;
        DADD R8, R6, R6 ;
        MOV32I R10, 0x0 ;
        MOV32I R11, 0x7ff00000 ;
        DADD R12, R10, R6 ;
        EXIT ;
    """

    @pytest.mark.parametrize("path, block", [("decoded", 32),
                                             ("cohort", 64)])
    def test_one_screen_and_classification_per_tuple(self, monkeypatch,
                                                     path, block):
        import sys

        from repro.api import EXECUTION_PATHS, Session
        from repro.binfpe import BinFPE
        from repro.fpx import detector as detector_mod
        from repro.sass import fpenc

        calls = {}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        # count every call, whichever module bound the function
        for name in ("exceptional_f32", "exceptional_f64",
                     "classify_f32_bits", "classify_f64_bits",
                     "select_check"):
            home = detector_mod if name == "select_check" else fpenc
            fn = getattr(home, name)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") \
                        and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(name, fn))

        code = KernelCode.assemble("shared", self.KERNEL)
        tools = [BinFPE(), FPXDetector(DetectorConfig(use_gt=False)),
                 FPXDetector()]
        with Session(tools, **EXECUTION_PATHS[path]) as session:
            session.run_schedule([LaunchSpec(code, LaunchConfig(1, block))])
            for i in range(len(tools)):
                report = session.report(observer=i)
                assert report.count(FPFormat.FP32, ExceptionKind.INF) == 1
                assert report.count(FPFormat.FP64, ExceptionKind.INF) == 1
        # the cohort engine probes both warps as one cohort: either way
        # one dispatch per FP instruction, each screened once for three
        # probes, and only the exceptional one classified
        assert calls == {"exceptional_f32": 2, "exceptional_f64": 2,
                         "classify_f32_bits": 1, "classify_f64_bits": 1,
                         "select_check": len(code)}

