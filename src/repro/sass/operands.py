"""Operand model for SASS instructions, mirroring NVBit's ``InstrType``.

NVBit exposes each instruction operand as a tagged union (``operand_t``)
with a ``type`` from ``InstrType::OperandType``.  GPU-FPX's analyzer
dispatches on exactly four of those types (Listing 2 of the paper): REG,
CBANK, IMM_DOUBLE, and GENERIC; everything else is skipped.  We also model
PRED (predicate register operands, used by FSEL/FSETP), MREF (memory
references used by LDG/STG) and IMM_INT (integer immediates) because the
substrate kernels need them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "OperandType",
    "Operand",
    "reg",
    "pred",
    "imm_double",
    "imm_int",
    "cbank",
    "generic",
    "mref",
    "RZ",
    "PT",
    "NUM_REGS",
    "NUM_PREDS",
]

#: Register number of RZ, the hardwired zero register.
RZ = 255
#: Predicate number of PT, the hardwired true predicate.
PT = 7
#: Architectural general-purpose registers per thread (R0..R254 + RZ).
NUM_REGS = 256
#: Predicate registers per thread (P0..P6 + PT).
NUM_PREDS = 8


class OperandType(enum.Enum):
    """Operand kinds, following ``InstrType::OperandType`` in NVBit."""

    REG = "REG"
    PRED = "PRED"
    IMM_DOUBLE = "IMM_DOUBLE"
    IMM_INT = "IMM_INT"
    CBANK = "CBANK"
    GENERIC = "GENERIC"
    MREF = "MREF"


@dataclass(frozen=True)
class Operand:
    """One instruction operand.

    Fields are a flattened version of NVBit's union:

    - ``REG``: ``num`` is the register number; ``negated``/``absolute``
      model the ``-R3`` / ``|R3|`` source modifiers; ``reuse`` models the
      ``.reuse`` operand-cache hint seen in Listing 7 (no semantic effect).
    - ``PRED``: ``num`` is the predicate number, ``negated`` models ``!P0``.
    - ``IMM_DOUBLE``: ``value`` is the immediate as a float (may be
      INF/NaN — e.g. ``FADD RZ, RZ, +INF``).
    - ``IMM_INT``: ``ivalue`` is the immediate as an int.
    - ``CBANK``: ``cbank_id`` and ``offset`` locate a constant-bank word.
    - ``GENERIC``: ``text`` is the raw operand spelling (e.g. ``-QNAN``).
    - ``MREF``: ``num`` is the address-base register, ``offset`` the
      immediate byte offset, i.e. ``[R4+0x10]``.
    """

    type: OperandType
    num: int = 0
    value: float = 0.0
    ivalue: int = 0
    cbank_id: int = 0
    offset: int = 0
    text: str = ""
    negated: bool = False
    absolute: bool = False
    reuse: bool = False

    def is_reg(self) -> bool:
        return self.type is OperandType.REG

    def is_rz(self) -> bool:
        return self.type is OperandType.REG and self.num == RZ

    def sass(self) -> str:
        """Render this operand the way SASS disassembly would."""
        if self.type is OperandType.REG:
            name = "RZ" if self.num == RZ else f"R{self.num}"
            if self.absolute:
                name = f"|{name}|"
            if self.negated:
                name = f"-{name}"
            if self.reuse:
                name = f"{name}.reuse"
            return name
        if self.type is OperandType.PRED:
            name = "PT" if self.num == PT else f"P{self.num}"
            return f"!{name}" if self.negated else name
        if self.type is OperandType.IMM_DOUBLE:
            v = self.value
            if v != v:
                return "-QNAN" if self.text.startswith("-") else "+QNAN"
            if v == float("inf"):
                return "+INF"
            if v == float("-inf"):
                return "-INF"
            return repr(v)
        if self.type is OperandType.IMM_INT:
            return hex(self.ivalue)
        if self.type is OperandType.CBANK:
            return f"c[{self.cbank_id:#x}][{self.offset:#x}]"
        if self.type is OperandType.GENERIC:
            return self.text
        if self.type is OperandType.MREF:
            base = "RZ" if self.num == RZ else f"R{self.num}"
            if self.offset:
                return f"[{base}+{self.offset:#x}]"
            return f"[{base}]"
        raise AssertionError(f"unhandled operand type {self.type}")


#: Interned REG and PRED operands, keyed by (number, modifier flags).
#: Operands are frozen, so one object serves every instruction; the ISA
#: bounds the tables (NUM_REGS x 8 and NUM_PREDS x 2 entries).
#: Immediates are not interned: their vocabulary is unbounded, and a
#: value key would merge ``-0.0`` with ``0.0`` and never find a NaN.
_REGS: dict[tuple, Operand] = {}
_PREDS: dict[tuple, Operand] = {}


def reg(num: int, *, negated: bool = False, absolute: bool = False,
        reuse: bool = False) -> Operand:
    """The REG operand ``num`` (``RZ`` via ``reg(RZ)``), interned."""
    key = (num, negated, absolute, reuse)
    op = _REGS.get(key)
    if op is None:
        if not 0 <= num < NUM_REGS:
            raise ValueError(f"register number out of range: {num}")
        op = _REGS[key] = Operand(OperandType.REG, num=num, negated=negated,
                                  absolute=absolute, reuse=reuse)
    return op


def pred(num: int, *, negated: bool = False) -> Operand:
    """The PRED operand ``num`` (``PT`` via ``pred(PT)``), interned."""
    key = (num, negated)
    op = _PREDS.get(key)
    if op is None:
        if not 0 <= num < NUM_PREDS:
            raise ValueError(f"predicate number out of range: {num}")
        op = _PREDS[key] = Operand(OperandType.PRED, num=num,
                                   negated=negated)
    return op


def imm_double(value: float, text: str = "") -> Operand:
    """Build an IMM_DOUBLE operand; ``text`` preserves spellings like -QNAN."""
    return Operand(OperandType.IMM_DOUBLE, value=float(value), text=text)


def imm_int(value: int) -> Operand:
    """Build an IMM_INT operand."""
    return Operand(OperandType.IMM_INT, ivalue=int(value))


def cbank(cbank_id: int, offset: int) -> Operand:
    """Build a CBANK operand addressing constant bank ``cbank_id``."""
    return Operand(OperandType.CBANK, cbank_id=cbank_id, offset=offset)


def generic(text: str) -> Operand:
    """Build a GENERIC operand (textual, e.g. ``-QNAN`` for MUFU.RSQ)."""
    return Operand(OperandType.GENERIC, text=text)


def mref(base_reg: int, offset: int = 0) -> Operand:
    """Build an MREF operand ``[Rbase+offset]``."""
    return Operand(OperandType.MREF, num=base_reg, offset=offset)
