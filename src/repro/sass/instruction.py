"""SASS instruction objects with an NVBit-flavoured inspection API.

GPU-FPX interacts with instructions through NVBit's ``Instr`` interface:
``getSASS()``, ``getNumOperands()``, ``getOperand(i)`` and the opcode
string.  This module reproduces that surface, plus the predicate-guard and
label plumbing the simulator needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .isa import OpCategory, OpInfo, opcode_info
from .operands import Operand, OperandType, pred as make_pred

__all__ = ["Guard", "Instruction"]


@dataclass(frozen=True)
class Guard:
    """A ``@P3`` / ``@!P3`` predicate guard on an instruction."""

    pred_num: int
    negated: bool = False

    def sass(self) -> str:
        name = "PT" if self.pred_num == 7 else f"P{self.pred_num}"
        return f"@!{name}" if self.negated else f"@{name}"


@dataclass
class Instruction:
    """One SASS instruction.

    ``opcode`` is the base opcode (``FADD``); ``modifiers`` carries the
    dot-suffixes in order (``("FTZ",)`` for ``FADD.FTZ``).  ``operands``
    follows the SASS convention that the destination register (when any)
    is operand 0; predicate destinations precede register destinations for
    FSETP-style opcodes, matching disassembly (``FSETP.GT.AND P0, PT, R3,
    RZ, PT``).

    ``target`` is a label name for BRA/SSY.  ``source_loc`` is the
    file:line the compiler attributes this instruction to (``None`` for
    closed-source kernels — reported as ``/unknown_path`` like the paper's
    Listings 3-7).
    """

    opcode: str
    operands: list[Operand] = field(default_factory=list)
    modifiers: tuple[str, ...] = ()
    guard: Guard | None = None
    target: str | None = None
    source_loc: str | None = None
    #: Program counter, assigned when the instruction joins a KernelCode.
    pc: int = -1
    #: Static facts about the base opcode, resolved once at construction.
    info: OpInfo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Validates the opcode eagerly so malformed programs fail at build
        # time, not mid-kernel.
        self.info = opcode_info(self.opcode)

    # -- NVBit-style inspection API ---------------------------------------

    def get_opcode(self) -> str:
        """Full dotted opcode, e.g. ``MUFU.RCP64H`` or ``FSETP.GT.AND``."""
        if self.modifiers:
            return ".".join((self.opcode, *self.modifiers))
        return self.opcode

    def getNumOperands(self) -> int:  # noqa: N802 - NVBit spelling
        return len(self.operands)

    def getOperand(self, i: int) -> Operand:  # noqa: N802 - NVBit spelling
        return self.operands[i]

    def fingerprint(self) -> str:
        """Stable identity of this instruction at its position.

        Hashes the disassembly text plus the pc, so two kernels whose
        instruction streams render identically share per-instruction
        fingerprints.  Part of the NVBit-style inspection API; the
        decode caches key on :meth:`KernelCode.fingerprint` instead.
        """
        text = f"{self.pc}:{self.getSASS()}"
        return hashlib.sha1(text.encode()).hexdigest()[:16]

    def getSASS(self) -> str:  # noqa: N802 - NVBit spelling
        """Render the instruction as SASS disassembly text."""
        parts = []
        if self.guard is not None:
            parts.append(self.guard.sass())
        head = self.get_opcode()
        ops = ", ".join(op.sass() for op in self.operands)
        if self.target is not None:
            ops = f"`({self.target})" if not ops else f"{ops}, `({self.target})"
        body = f"{head} {ops}".rstrip()
        parts.append(body)
        return " ".join(parts) + " ;"

    # -- classification helpers used by the tools and the executor --------

    @property
    def category(self) -> OpCategory:
        return self.info.category

    def has_modifier(self, mod: str) -> bool:
        return mod in self.modifiers

    def is_mufu_rcp(self) -> bool:
        """True for ``MUFU.RCP`` / ``MUFU.RCP64H`` (Algorithm 1 dispatch)."""
        return self.opcode == "MUFU" and any(
            m in ("RCP", "RCP64H") for m in self.modifiers)

    def is_64h(self) -> bool:
        """True when the opcode spelling contains ``64H``."""
        return any("64H" in m for m in self.modifiers)

    def result_fp_width(self) -> int:
        """FP width of the value written to the destination register(s).

        F2F conversions derive the width from their first width modifier
        (destination width leads: ``F2F.F64.F32`` widens to FP64).
        """
        if self.opcode == "F2F":
            for m in self.modifiers:
                if m == "F64":
                    return 64
                if m == "F32":
                    return 32
                if m == "F16":
                    return 16
            raise ValueError(f"F2F without width modifiers: {self.getSASS()}")
        if self.opcode == "MUFU" and self.is_64h():
            return 64
        return self.info.fp_width

    def dest_reg(self) -> int | None:
        """Destination general-register number, or ``None``.

        For predicate-writing FP compares (FSETP/DSETP/ISETP/FCHK) there is
        no general-register destination.
        """
        if self.info.dst_regs == 0:
            return None
        for op in self.operands:
            if op.type is OperandType.REG:
                return op.num
        return None

    def dest_pred(self) -> int | None:
        """Destination predicate number for predicate-writing opcodes."""
        if not self.info.writes_pred:
            return None
        for op in self.operands:
            if op.type is OperandType.PRED:
                return op.num
        return None

    def source_operands(self) -> list[Operand]:
        """Operands that are read (everything after the destinations)."""
        skip_reg = self.info.dst_regs > 0
        skip_pred = self.info.writes_pred
        out: list[Operand] = []
        for op in self.operands:
            if skip_reg and op.type is OperandType.REG:
                skip_reg = False
                continue
            if skip_pred and op.type is OperandType.PRED:
                skip_pred = False
                continue
            out.append(op)
        return out

    def reg_nums(self) -> list[int]:
        """All general-register numbers in operand order (dest first).

        This mirrors the register list GPU-FPX's analyzer passes to its
        injection function ("the first register number in the register
        list always corresponds to the destination register").
        """
        return [op.num for op in self.operands
                if op.type is OperandType.REG]

    def shares_dest_with_source(self) -> bool:
        """True when the destination register also appears as a source.

        The analyzer's shared-register pre-execution check (§3.2.1,
        "FADD R6, R1, R6") hinges on this property.
        """
        regs = self.reg_nums()
        if self.info.dst_regs == 0 or len(regs) < 2:
            return False
        return regs[0] in regs[1:]

    def with_guard(self, pred_num: int, negated: bool = False) -> "Instruction":
        """Return a copy guarded by ``@P``/``@!P``."""
        return Instruction(self.opcode, list(self.operands), self.modifiers,
                           Guard(pred_num, negated), self.target,
                           self.source_loc, self.pc)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.getSASS()


def _guard_from_text(text: str) -> Guard:
    """Parse ``@P0`` / ``@!P0`` / ``@PT`` into a Guard (parser helper)."""
    body = text[1:]
    negated = body.startswith("!")
    if negated:
        body = body[1:]
    num = 7 if body == "PT" else int(body[1:])
    make_pred(num)  # range check
    return Guard(num, negated)
