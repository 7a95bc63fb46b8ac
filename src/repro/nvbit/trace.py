"""An instruction tracer built on the instrumentation framework.

Demonstrates that the NVBit layer is tool-agnostic (GPU-FPX and BinFPE
are not special-cased): :class:`SassTracer` injects after every
instruction and records opcode streams and, optionally, destination
values.  Handy for debugging kernels and for the test suite to observe
executions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..gpu.executor import InjectionCtx
from ..sass.operands import RZ
from ..sass.program import KernelCode
from .plan import InstrumentationPlan, PlannedInjection
from .tool import NVBitTool

__all__ = ["SassTracer", "TraceEntry"]


@dataclass(frozen=True)
class TraceEntry:
    kernel: str
    pc: int
    sass: str
    active_lanes: int
    dest_value: float | None


@dataclass
class SassTracer(NVBitTool):
    """Records every executed instruction (warp-level)."""

    name: str = "sass-tracer"
    capture_values: bool = False
    max_entries: int = 100_000
    entries: list[TraceEntry] = field(default_factory=list)
    opcode_counts: Counter = field(default_factory=Counter)

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        return InstrumentationPlan(
            self.name, code.name,
            tuple(PlannedInjection(instr.pc, "after", self._record)
                  for instr in code))

    def _record(self, ictx: InjectionCtx) -> None:
        instr = ictx.instr
        value = None
        if self.capture_values:
            dest = instr.dest_reg()
            if dest is not None and dest != RZ:
                lanes = np.nonzero(ictx.exec_mask)[0]
                if lanes.size:
                    if instr.result_fp_width() == 64:
                        value = float(
                            ictx.warp.read_f64_pair(dest)[lanes[0]])
                    else:
                        value = float(ictx.warp.read_f32(dest)[lanes[0]])
        ictx.defer(self._append, (value, int(ictx.exec_mask.sum())))

    def _append(self, ictx: InjectionCtx) -> None:
        """Deferred half of :meth:`_record` (replayed after the launch)."""
        value, active_lanes = ictx.args
        instr = ictx.instr
        self.opcode_counts[instr.opcode] += 1
        if len(self.entries) >= self.max_entries:
            return
        self.entries.append(TraceEntry(
            kernel=ictx.launch.code.name, pc=instr.pc,
            sass=instr.getSASS(),
            active_lanes=active_lanes,
            dest_value=value))

    def executed_opcodes(self) -> list[str]:
        return [e.sass.split()[0].split(".")[0] for e in self.entries]

    def dump(self, *, last: int | None = None) -> str:
        entries = self.entries if last is None else self.entries[-last:]
        lines = []
        for e in entries:
            val = "" if e.dest_value is None else f"  = {e.dest_value!r}"
            lines.append(f"{e.kernel}:{e.pc:4d}  [{e.active_lanes:2d}] "
                         f"{e.sass}{val}")
        return "\n".join(lines)
