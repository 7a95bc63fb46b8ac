"""Static validation (lint) for assembled kernels.

Catches the malformed-SASS classes that would crash or silently corrupt
a real GPU: FP64 register pairs running past the register file, wrong
operand shapes for an opcode, predicated SSY (meaningless), divergent
branches without a reconvergence point, and writes to R255/PT.

The compiler runs this after lowering; hand-written SASS (tests, case
studies) can call :func:`validate_kernel` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instruction import Instruction
from .isa import OpCategory
from .operands import NUM_REGS, OperandType, PT, RZ
from .program import KernelCode

__all__ = ["ValidationIssue", "validate_kernel", "SassValidationError"]


class SassValidationError(ValueError):
    """Raised by :func:`validate_kernel` in strict mode."""


@dataclass(frozen=True)
class ValidationIssue:
    pc: int
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] pc={self.pc}: {self.message}"


def _fp64_regs(instr: Instruction) -> list[int]:
    """Low registers of FP64 pairs this instruction touches."""
    if instr.category is not OpCategory.FP64_ARITH and \
            instr.category is not OpCategory.FP64_CTRL:
        return []
    return [op.num for op in instr.operands
            if op.type is OperandType.REG and op.num != RZ]


def validate_kernel(code: KernelCode, *, strict: bool = False
                    ) -> list[ValidationIssue]:
    """Lint a kernel; returns issues (raises in strict mode on errors)."""
    issues: list[ValidationIssue] = []

    def err(pc: int, msg: str) -> None:
        issues.append(ValidationIssue(pc, "error", msg))

    def warn(pc: int, msg: str) -> None:
        issues.append(ValidationIssue(pc, "warning", msg))

    ssy_targets: set[int] = set()
    for instr in code:
        pc = instr.pc
        info = instr.info

        # register-pair bounds for FP64 operands
        for low in _fp64_regs(instr):
            if low + 1 >= NUM_REGS - 1:
                err(pc, f"FP64 pair (R{low}, R{low + 1}) runs off the "
                        "register file")
            if low % 2 != 0:
                warn(pc, f"FP64 operand R{low} is not pair-aligned")

        # destination sanity
        dest = instr.dest_reg()
        if info.dst_regs >= 1 and dest is None and not info.writes_pred:
            err(pc, f"{instr.opcode} requires a register destination")
        if info.dst_regs == 2 and dest is not None and \
                dest + 1 >= NUM_REGS - 1:
            err(pc, f"{instr.opcode} result pair overflows at R{dest}")

        # predicate-writing opcodes need predicate destinations
        if info.writes_pred:
            dest_pred = instr.dest_pred()
            if dest_pred is None:
                err(pc, f"{instr.opcode} requires a predicate destination")
            elif dest_pred == PT:
                warn(pc, f"{instr.opcode} writes PT (discarded)")

        # structural rules
        if instr.opcode == "SSY":
            if instr.guard is not None:
                err(pc, "SSY must not be predicated")
            ssy_targets.add(code.target_pc(pc))
        if instr.opcode == "BRA" and instr.guard is not None:
            # potentially divergent: needs an enclosing SSY or a
            # backward (loop) target
            target = code.target_pc(pc)
            if target > pc and not ssy_targets:
                warn(pc, "forward divergent branch without an SSY "
                         "reconvergence point")

        # operand-shape checks for common opcodes
        if instr.opcode in ("FADD", "FMUL", "DADD", "DMUL") and \
                len(instr.source_operands()) != 2:
            err(pc, f"{instr.opcode} takes two sources")
        if instr.opcode in ("FFMA", "DFMA") and \
                len(instr.source_operands()) != 3:
            err(pc, f"{instr.opcode} takes three sources")
        if instr.opcode == "FSEL":
            srcs = instr.source_operands()
            if not srcs or srcs[-1].type is not OperandType.PRED:
                err(pc, "FSEL needs a trailing predicate source")
        if instr.opcode == "MUFU" and not any(
                m in ("RCP", "RCP64H", "RSQ", "SQRT", "EX2", "LG2",
                      "SIN", "COS") for m in instr.modifiers):
            err(pc, "MUFU without a function modifier")

    if strict and any(i.severity == "error" for i in issues):
        detail = "; ".join(str(i) for i in issues
                           if i.severity == "error")
        raise SassValidationError(f"{code.name}: {detail}")
    return issues
