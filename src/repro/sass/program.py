"""Kernel code objects: validated instruction sequences with labels."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .instruction import Instruction
from .isa import (
    BINFPE_SUPPORTED_OPCODES,
    FPX_SUPPORTED_OPCODES,
    OpCategory,
)
from .parser import SassSyntaxError, parse_lines

__all__ = ["KernelCode"]


@dataclass
class KernelCode:
    """An assembled kernel body.

    ``name`` is the kernel's mangled name as a launch would report it
    (e.g. ``void cusparse::load_balancing_kernel``).  ``instructions`` is
    the straight-line instruction array; branch targets are resolved
    against ``labels`` at build time and cached in ``_target_pc``.
    """

    name: str
    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    #: Whether source (file:line) information is available; closed-source
    #: kernels report ``/unknown_path`` like the paper's listings.
    has_source_info: bool = True

    def __post_init__(self) -> None:
        for pc, instr in enumerate(self.instructions):
            instr.pc = pc
        self._target_pc: dict[int, int] = {}
        for instr in self.instructions:
            if instr.target is not None:
                if instr.target not in self.labels:
                    raise SassSyntaxError(
                        f"{self.name}: undefined label {instr.target!r}")
                self._target_pc[instr.pc] = self.labels[instr.target]
        if not self.instructions or self.instructions[-1].opcode != "EXIT":
            raise SassSyntaxError(
                f"{self.name}: kernel must end with EXIT")

    @classmethod
    def assemble(cls, name: str, text: str, *,
                 has_source_info: bool = True) -> "KernelCode":
        """Assemble SASS text into a kernel."""
        instructions, labels = parse_lines(text)
        return cls(name, instructions, labels,
                   has_source_info=has_source_info)

    def sass_lines(self) -> tuple[str, ...]:
        """Every instruction's SASS disassembly text, indexed by pc.

        Rendered once per kernel and cached (the instruction list is
        frozen once the kernel is built): the fingerprint, the tools'
        site registries and the shadow plane all read these lines
        instead of re-rendering through ``Instruction.getSASS``.
        """
        cached = getattr(self, "_sass_lines", None)
        if cached is None:
            cached = self._sass_lines = tuple(
                instr.getSASS() for instr in self.instructions)
        return cached

    def fingerprint(self) -> str:
        """Stable identity of this kernel's SASS.

        Hashes the name, the rendered instruction stream and the label
        table; cached after the first call (the instruction list is
        frozen once the kernel is built).  Decode caches key on this, so
        two textually identical kernels share decoded programs.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        h = hashlib.sha1()
        h.update(self.name.encode())
        h.update(b"|src" if self.has_source_info else b"|nosrc")
        for line in self.sass_lines():
            h.update(b"\n")
            h.update(line.encode())
        for label, pc in sorted(self.labels.items()):
            h.update(f"@{label}={pc}".encode())
        self._fingerprint = h.hexdigest()
        return self._fingerprint

    def target_pc(self, pc: int) -> int:
        """Resolved branch target for the instruction at ``pc``."""
        return self._target_pc[pc]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    # -- static profiles used by tools and the cost model ------------------

    def fp_instruction_pcs(self, *, tool: str = "fpx") -> list[int]:
        """PCs of instructions a tool would instrument.

        ``tool="fpx"`` covers all of Table 1 (computation + control-flow
        opcodes); ``tool="binfpe"`` covers only the computation column.
        """
        supported = (FPX_SUPPORTED_OPCODES if tool == "fpx"
                     else BINFPE_SUPPORTED_OPCODES)
        return [i.pc for i in self.instructions if i.opcode in supported]

    def count_category(self, category: OpCategory) -> int:
        """Static count of instructions in one category."""
        return sum(1 for i in self.instructions if i.category is category)

    def disassemble(self) -> str:
        """Dump the kernel as SASS text (round-trips through the parser)."""
        pc_to_labels: dict[int, list[str]] = {}
        for label, pc in self.labels.items():
            pc_to_labels.setdefault(pc, []).append(label)
        lines: list[str] = []
        for instr in self.instructions:
            for label in pc_to_labels.get(instr.pc, ()):
                lines.append(f"{label}:")
            lines.append(f"    {instr.getSASS()}")
        for label in pc_to_labels.get(len(self.instructions), ()):
            lines.append(f"{label}:")
        return "\n".join(lines)
