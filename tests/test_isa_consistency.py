"""Cross-module invariants: the ISA table, decoder, and tools agree."""

import pytest

from repro.fpx.detector import select_check
from repro.gpu.decode import _DECODERS
from repro.sass.isa import (
    BINFPE_SUPPORTED_OPCODES,
    CONTROL_FLOW_FP_OPCODES,
    FPX_SUPPORTED_OPCODES,
    OPCODES,
    OpCategory,
)
from repro.sass.instruction import Instruction
from repro.sass.operands import pred, reg


class TestISAExecutorConsistency:
    def test_every_opcode_has_semantics(self):
        """No opcode in the ISA table lacks a decoder."""
        missing = set(OPCODES) - set(_DECODERS)
        assert not missing, f"opcodes without semantics: {missing}"

    def test_no_phantom_handlers(self):
        phantom = set(_DECODERS) - set(OPCODES)
        assert not phantom, f"handlers for unknown opcodes: {phantom}"


class TestTable1Coverage:
    """The paper's Table 1, as code."""

    def test_fpx_computation_opcodes(self):
        compute = {"FADD", "FADD32I", "FFMA32I", "FFMA", "FMUL",
                   "FMUL32I", "MUFU", "DADD", "DFMA", "DMUL"}
        assert compute <= FPX_SUPPORTED_OPCODES

    def test_fpx_control_flow_opcodes(self):
        assert CONTROL_FLOW_FP_OPCODES == {"FSEL", "FSET", "FSETP",
                                           "FMNMX", "DSETP"}
        assert CONTROL_FLOW_FP_OPCODES <= FPX_SUPPORTED_OPCODES

    def test_binfpe_misses_exactly_the_right_column(self):
        """'all the instructions in the right-hand side column ... are
        missed by BinFPE'."""
        assert not (CONTROL_FLOW_FP_OPCODES & BINFPE_SUPPORTED_OPCODES)
        # and BinFPE covers the computation column
        assert BINFPE_SUPPORTED_OPCODES == \
            FPX_SUPPORTED_OPCODES - CONTROL_FLOW_FP_OPCODES - \
            {"HADD2", "HMUL2", "HFMA2"}  # FP16 is our extension


class TestAlgorithm1TotalCoverage:
    def test_select_check_covers_all_fpx_reg_dest_opcodes(self):
        """Algorithm 1 must pick a check for every FPX-supported opcode
        with a register destination."""
        for name in FPX_SUPPORTED_OPCODES:
            info = OPCODES[name]
            if info.dst_regs == 0:
                continue  # FSETP/DSETP: predicate results, analyzer-only
            if name == "MUFU":
                instr = Instruction("MUFU", [reg(4), reg(6)], ("RCP",))
            elif name in ("FSEL", "FMNMX"):
                instr = Instruction(name, [reg(4), reg(2), reg(3),
                                           pred(0)])
            elif name == "FSET":
                instr = Instruction("FSET", [reg(4), reg(2), reg(3),
                                             pred(7)], ("BF", "GT", "AND"))
            elif info.category is OpCategory.FP64_ARITH:
                instr = Instruction(name, [reg(4), reg(6), reg(8)])
            elif name in ("FFMA", "FFMA32I", "HFMA2"):
                instr = Instruction(name, [reg(4), reg(2), reg(3),
                                           reg(5)])
            else:
                instr = Instruction(name, [reg(4), reg(2), reg(3)])
            assert select_check(instr) is not None, name

    def test_non_fp_opcodes_never_checked(self):
        for name, info in OPCODES.items():
            if name in FPX_SUPPORTED_OPCODES or info.dst_regs == 0:
                continue
            if info.category in (OpCategory.CONVERT,):
                instr = Instruction(name, [reg(4), reg(2)],
                                    ("F32", "F64") if name == "F2F"
                                    else ("F32",))
            elif info.category is OpCategory.MEMORY:
                continue  # operand shapes vary; detector skips by category
            else:
                instr = Instruction(name, [reg(4), reg(2), reg(3)])
            assert select_check(instr) is None, name


class TestCostTableSanity:
    def test_sfu_slower_than_alu(self):
        assert OPCODES["MUFU"].cycles > OPCODES["FADD"].cycles

    def test_fp64_slower_than_fp32(self):
        assert OPCODES["DADD"].cycles > OPCODES["FADD"].cycles

    def test_memory_slowest(self):
        assert OPCODES["LDG"].cycles > OPCODES["DADD"].cycles
