"""BinFPE baseline tests: detection parity and its documented blind spots."""

import pytest

from repro.binfpe import BinFPE
from repro.fpx import DetectorConfig, ExceptionKind, FPFormat, FPXDetector
from repro.gpu import Device, LaunchConfig
from repro.nvbit import LaunchSpec
from tests.util import make_runtime
from repro.sass import KernelCode


def run_tool(tool, text, *, block=32, launches=1, name="k"):
    code = KernelCode.assemble(name, text)
    runtime = make_runtime(Device(), tool)
    runtime.run_program([LaunchSpec(code, LaunchConfig(1, block))] * launches)
    return runtime.run


class TestBinFPEDetection:
    def test_detects_arith_exceptions(self):
        tool = BinFPE()
        run_tool(tool, """
            FADD R1, RZ, 3e38 ;
            FADD R2, R1, R1 ;
            EXIT ;
        """)
        rep = tool.report()
        assert rep.count(FPFormat.FP32, ExceptionKind.INF) == 1

    def test_misses_fsel_nan(self):
        """Table 1's right column — FSEL and friends — is BinFPE's blind
        spot: 'all the instructions in the right-hand side column ... are
        missed by BinFPE'."""
        kernel = """
            FADD R1, RZ, +QNAN ;
            FSEL R2, R1, RZ, PT ;
            FMNMX R3, R1, RZ, PT ;
            EXIT ;
        """
        binfpe = BinFPE()
        run_tool(binfpe, kernel)
        fpx = FPXDetector()
        run_tool(fpx, kernel)
        # Both see the FADD NaN; only GPU-FPX sees the FSEL NaN.
        assert binfpe.report().count(FPFormat.FP32, ExceptionKind.NAN) == 1
        assert fpx.report().count(FPFormat.FP32, ExceptionKind.NAN) == 2

    def test_div0_classified(self):
        tool = BinFPE()
        run_tool(tool, """
            MUFU.RCP R1, RZ ;
            EXIT ;
        """)
        assert tool.report().count(FPFormat.FP32, ExceptionKind.DIV0) == 1


class TestBinFPECosts:
    def test_sends_every_value(self):
        """One message per thread per FP instruction, exception or not."""
        tool = BinFPE()
        run = run_tool(tool, """
            FADD R1, RZ, 1.0 ;
            FMUL R2, R1, 2.0 ;
            EXIT ;
        """)
        assert run.channel_messages == 2 * 32

    def test_far_more_traffic_than_fpx(self):
        kernel = """
            MOV32I R0, 0x200 ;
        loop:
            FADD R1, RZ, 1.5 ;
            FMUL R2, R1, R1 ;
            FFMA R3, R2, R1, R2 ;
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA loop ;
            EXIT ;
        """
        run_b = run_tool(BinFPE(), kernel)
        run_f = run_tool(FPXDetector(), kernel)
        assert run_b.channel_messages == 3 * 32 * 512
        assert run_f.channel_messages == 0  # no exceptions -> nothing sent
        assert run_b.total_cycles > run_f.total_cycles

    def test_tiny_kernel_outlier_favours_binfpe(self):
        """The Figure 5 outliers (simpleAWBarrier & co.): with very few FP
        operations, GPU-FPX's one-time GT allocation is a net loss."""
        kernel = """
            FADD R1, RZ, 1.5 ;
            EXIT ;
        """
        run_b = run_tool(BinFPE(), kernel)
        run_f = run_tool(FPXDetector(), kernel)
        assert run_f.total_cycles > run_b.total_cycles
        assert run_f.gt_alloc_cycles > 0

    def test_repeated_exception_resent_every_time(self):
        """No dedup in BinFPE."""
        tool = BinFPE()
        run_tool(tool, """
            FADD R1, RZ, +INF ;
            EXIT ;
        """, launches=4)
        rep = tool.report()
        key = next(iter(rep.occurrences))
        assert rep.occurrences[key] == 32 * 4

    def test_hang_on_message_flood(self):
        """BinFPE's traffic can exceed the channel and hang the program."""
        from repro.gpu.cost import CostModel
        from dataclasses import replace
        device = Device(cost=CostModel(hang_message_threshold=1000))
        tool = BinFPE()
        code = KernelCode.assemble("k", """
            MOV32I R0, 0x40 ;
        loop:
            FADD R1, RZ, 1.0 ;
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA loop ;
            EXIT ;
        """)
        runtime = make_runtime(device, tool)
        runtime.run_program([LaunchSpec(code, LaunchConfig(1, 32))])
        assert runtime.run.hung
        assert runtime.run.slowdown(runtime.run) == \
            device.cost.hang_slowdown_cap


# FP64 operands as (low word, high word) register pairs.
_INF = (0, 0x7FF00000)
_NINF = (0, 0xFFF00000)
_NAN = (0, 0x7FF80000)
_ZERO = (0, 0)
_ONE = (0, 0x3FF00000)
_TWO = (0, 0x40000000)
_MAX = (0xFFFFFFFF, 0x7FEFFFFF)
_SUB_LO = (1, 0)  # 0x0000000000000001: subnormal set only in the low word
_NAN_LO = (0x7FC00000, 0x3FF00000)  # clean, low word alone an FP32 NaN

#: op -> destination case -> source pairs (R2, R4, R6).
_FP64_SOURCES = {
    "DADD": {"nan": (_INF, _NINF), "inf": (_MAX, _MAX),
             "sub": (_SUB_LO, _ZERO), "clean": (_NAN_LO, _ZERO)},
    "DMUL": {"nan": (_INF, _ZERO), "inf": (_MAX, _TWO),
             "sub": (_SUB_LO, _ONE), "clean": (_NAN_LO, _ONE)},
    "DFMA": {"nan": (_INF, _ZERO, _ZERO), "inf": (_MAX, _TWO, _ZERO),
             "sub": (_SUB_LO, _ONE, _ZERO), "clean": (_NAN_LO, _ONE, _ZERO)},
}
#: MUFU.RCP64H R9, R3 writes the high word of (R8, R9): case -> (R3, R8).
_RCP64H_SOURCES = {"nan": (0x7FF80000, 0), "inf": (0, 0),
                   "sub": (0x7FF00000, 1), "clean": (0x3FF00000, 0x7FC00000)}
_ARITH_KINDS = {"nan": ExceptionKind.NAN, "inf": ExceptionKind.INF,
                "sub": ExceptionKind.SUB, "clean": None}
#: A reciprocal's NaN or INF is a division by zero; its subnormal is
#: nothing.
_RCP_KINDS = {"nan": ExceptionKind.DIV0, "inf": ExceptionKind.DIV0,
              "sub": None, "clean": None}


def _fp64_kernel(op: str, case: str) -> tuple[str, int, ExceptionKind]:
    """SASS whose one FP64 site writes a ``case`` destination; returns
    the text, the site's pc and the kind both tools must report."""
    lines = []
    if op == "MUFU.RCP64H":
        high, low = _RCP64H_SOURCES[case]
        lines += [f"MOV32I R3, {high:#x} ;", f"MOV32I R8, {low:#x} ;",
                  "MUFU.RCP64H R9, R3 ;"]
        kind = _RCP_KINDS[case]
    else:
        sources = _FP64_SOURCES[op][case]
        for reg, (lo, hi) in zip((2, 4, 6), sources):
            lines += [f"MOV32I R{reg}, {lo:#x} ;",
                      f"MOV32I R{reg + 1}, {hi:#x} ;"]
        operands = ", ".join(f"R{reg}" for reg in (2, 4, 6)[:len(sources)])
        lines.append(f"{op} R8, {operands} ;")
        kind = _ARITH_KINDS[case]
    return "\n".join(lines + ["EXIT ;"]), len(lines) - 1, kind


def _kinds_and_sites(report):
    return [(r.kind, r.fmt, report.sites.site(r.loc).pc)
            for r in report.records]


class TestBinFPEFP64:
    """BinFPE classifies the FP64 register pair Algorithm 1 picks, from
    the probe context's shared classification, alone or fused with both
    detector configurations."""

    @pytest.mark.parametrize("case", ["nan", "inf", "sub", "clean"])
    @pytest.mark.parametrize("op", ["DADD", "DMUL", "DFMA", "MUFU.RCP64H"])
    @pytest.mark.parametrize("block", [32, 64], ids=["warp", "cohort"])
    def test_kinds_and_sites(self, op, case, block):
        from repro.api import Session

        text, pc, kind = _fp64_kernel(op, case)
        want = [] if kind is None else [(kind, FPFormat.FP64, pc)]
        code = KernelCode.assemble("fp64", text)
        spec = LaunchSpec(code, LaunchConfig(1, block))
        solo = BinFPE()
        with Session(solo) as session:
            session.run_schedule([spec])
        assert _kinds_and_sites(solo.report()) == want
        tools = [BinFPE(), FPXDetector(DetectorConfig(use_gt=False)),
                 FPXDetector()]
        with Session(tools) as session:
            session.run_schedule([spec])
            reports = [session.report(observer=i) for i in range(3)]
        # the detectors agree on every FP64 destination kind here
        assert [_kinds_and_sites(r) for r in reports] == [want] * 3
        assert reports[0].occurrences == solo.report().occurrences
