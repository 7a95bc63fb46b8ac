"""Unit tests for the SASS assembler/parser and instruction objects."""

import math

import pytest

from repro.sass import (
    Instruction,
    KernelCode,
    OperandType,
    PT,
    RZ,
    SassSyntaxError,
    parse_instruction,
    parse_lines,
)
from repro.sass.operands import imm_double, pred, reg


class TestParseBasics:
    def test_fadd(self):
        i = parse_instruction("FADD R6, R1, R6 ;")
        assert i.opcode == "FADD"
        assert [op.num for op in i.operands] == [6, 1, 6]
        assert i.dest_reg() == 6
        assert i.shares_dest_with_source()

    def test_ffma_with_reuse(self):
        i = parse_instruction("FFMA R1, R88.reuse, R104.reuse, R1 ;")
        assert i.opcode == "FFMA"
        assert i.operands[1].reuse and i.operands[2].reuse
        assert i.shares_dest_with_source()

    def test_guarded(self):
        i = parse_instruction("@!P6 FADD R2, R5, R2 ;")
        assert i.guard is not None
        assert i.guard.pred_num == 6 and i.guard.negated

    def test_mufu_rcp(self):
        i = parse_instruction("MUFU.RCP R4, R5 ;")
        assert i.is_mufu_rcp()
        assert not i.is_64h()

    def test_mufu_rcp64h(self):
        i = parse_instruction("MUFU.RCP64H R5, R7 ;")
        assert i.is_mufu_rcp()
        assert i.is_64h()
        assert i.result_fp_width() == 64

    def test_fsetp(self):
        i = parse_instruction("FSETP.GT.AND P0, PT, R3, RZ, PT ;")
        assert i.opcode == "FSETP"
        assert i.dest_pred() == 0
        assert i.dest_reg() is None
        preds = [op for op in i.operands if op.type is OperandType.PRED]
        assert len(preds) == 3

    def test_fsel_with_negated_pred(self):
        i = parse_instruction("FSEL R2, R5, R2, !P6 ;")
        p = i.operands[-1]
        assert p.type is OperandType.PRED and p.negated and p.num == 6

    def test_imm_double_inf(self):
        i = parse_instruction("FADD RZ, RZ, +INF ;")
        imm = i.operands[-1]
        assert imm.type is OperandType.IMM_DOUBLE
        assert imm.value == math.inf

    def test_mufu_generic_qnan(self):
        """NVBit reports MUFU's special constants as GENERIC (Listing 2)."""
        i = parse_instruction("MUFU.RSQ RZ, -QNAN ;")
        g = i.operands[-1]
        assert g.type is OperandType.GENERIC
        assert "QNAN" in g.text

    def test_cbank(self):
        i = parse_instruction("FADD R0, R1, c[0x0][0x160] ;")
        cb = i.operands[-1]
        assert cb.type is OperandType.CBANK
        assert cb.cbank_id == 0 and cb.offset == 0x160

    def test_mref(self):
        i = parse_instruction("LDG.E R2, [R4+0x10] ;")
        m = i.operands[-1]
        assert m.type is OperandType.MREF
        assert m.num == 4 and m.offset == 0x10

    def test_negated_abs_register(self):
        i = parse_instruction("FFMA R1, -R2, |R3|, R1 ;")
        assert i.operands[1].negated
        assert i.operands[2].absolute

    def test_source_loc_comment(self):
        i = parse_instruction("FADD R0, R1, R2 ; # kernel_ecc_3.cu:776")
        assert i.source_loc == "kernel_ecc_3.cu:776"

    def test_unknown_opcode_raises(self):
        with pytest.raises(SassSyntaxError):
            parse_instruction("FROB R0, R1 ;")

    def test_rz_pt_parse(self):
        i = parse_instruction("FSEL R0, RZ, R1, PT ;")
        assert i.operands[1].num == RZ
        assert i.operands[-1].num == PT


class TestSassRendering:
    def test_roundtrip_simple(self):
        text = "FADD R6, R1, R6 ;"
        i = parse_instruction(text)
        assert i.getSASS() == text

    def test_roundtrip_guard_and_mods(self):
        i = parse_instruction("@!P1 FFMA.FTZ R4, R2, R3, R4 ;")
        j = parse_instruction(i.getSASS())
        assert j.get_opcode() == "FFMA.FTZ"
        assert j.guard.negated and j.guard.pred_num == 1

    def test_roundtrip_all_operand_kinds(self):
        for text in [
            "MUFU.RCP R4, R5 ;",
            "FSETP.GT.AND P0, PT, R3, RZ, PT ;",
            "LDG.E R2, [R4+0x10] ;",
            "FADD R0, R1, c[0x0][0x160] ;",
            "FSEL R2, R5, R2, !P6 ;",
        ]:
            i = parse_instruction(text)
            j = parse_instruction(i.getSASS())
            assert j.getSASS() == i.getSASS()


class TestOperandTable:
    def test_registers_and_predicates_are_interned(self):
        assert reg(5) is reg(5)
        assert reg(5, negated=True) is reg(5, negated=True)
        assert reg(5, negated=True) is not reg(5)
        assert pred(PT) is pred(PT)
        i = parse_instruction("FADD R6, R1, R6 ;")
        assert i.operands[0] is i.operands[2] is reg(6)

    def test_out_of_range_numbers_raise_once_warm(self):
        for num in (0, RZ):  # warm both tables at their edges
            reg(num)
            pred(num % 8)
        for bad in (-1, 256, 1000):
            # twice: a refused number must not reach the table
            with pytest.raises(ValueError):
                reg(bad)
            with pytest.raises(ValueError):
                reg(bad)
        for bad in (-1, 8):
            with pytest.raises(ValueError):
                pred(bad)

    def test_immediates_stay_per_instruction(self):
        # A table keyed by value would merge -0.0 with 0.0 (they compare
        # equal) and could never find a NaN (nan != nan).
        assert imm_double(0.0).sass() == "0.0"
        assert imm_double(-0.0).sass() == "-0.0"
        assert imm_double(math.nan, text="-QNAN").sass() == "-QNAN"
        assert imm_double(math.nan, text="+QNAN").sass() == "+QNAN"
        for text in ("FADD R0, R1, 0.0 ;", "FADD R0, R1, -0.0 ;",
                     "FADD R0, R1, -QNAN ;", "FADD R0, R1, +QNAN ;"):
            assert parse_instruction(text).getSASS() == text


class TestParseLines:
    def test_labels_and_branches(self):
        code = """
        // simple loop
            MOV32I R0, 0x4 ;
        loop:
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA loop ;
            EXIT ;
        """
        instrs, labels = parse_lines(code)
        assert len(instrs) == 5
        assert labels == {"loop": 1}
        assert instrs[3].target == "loop"

    def test_kernel_code_resolves_targets(self):
        code = """
        loop:
            NOP ;
            BRA loop ;
            EXIT ;
        """
        instrs, labels = parse_lines(code)
        k = KernelCode("test", instrs, labels)
        assert k.target_pc(1) == 0

    def test_kernel_requires_exit(self):
        instrs, labels = parse_lines("NOP ;")
        with pytest.raises(SassSyntaxError):
            KernelCode("bad", instrs, labels)

    def test_undefined_label(self):
        instrs, labels = parse_lines("BRA nowhere ;\nEXIT ;")
        with pytest.raises(SassSyntaxError):
            KernelCode("bad", instrs, labels)

    def test_disassemble_roundtrip(self):
        code = """
            MOV32I R0, 0x4 ;
        top:
            IADD3 R0, R0, -0x1 ;
            ISETP.NE.AND P0, PT, R0, 0x0, PT ;
        @P0 BRA top ;
            EXIT ;
        """
        k = KernelCode.assemble("k", code)
        k2 = KernelCode.assemble("k", k.disassemble())
        assert [i.getSASS() for i in k] == [i.getSASS() for i in k2]


class TestStaticProfiles:
    def test_fp_instruction_pcs_fpx_vs_binfpe(self):
        """BinFPE misses the control-flow column of Table 1."""
        code = """
            FADD R0, R1, R2 ;
            FSEL R3, R0, R1, P0 ;
            FMNMX R4, R0, R1, PT ;
            FSETP.GT.AND P0, PT, R0, RZ, PT ;
            DSETP.GT.AND P1, PT, R4, R6, PT ;
            EXIT ;
        """
        k = KernelCode.assemble("k", code)
        fpx = set(k.fp_instruction_pcs(tool="fpx"))
        binfpe = set(k.fp_instruction_pcs(tool="binfpe"))
        assert fpx == {0, 1, 2, 3, 4}
        assert binfpe == {0}
