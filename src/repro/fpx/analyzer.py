"""The GPU-FPX *analyzer* (§3.2): exception flow tracking.

The analyzer instruments the same Table-1 instructions as the detector
but injects *before and after* each one:

- **before**: capture the classes of all register operands — essential
  when the destination register is also a source ("FADD R6, R1, R6"),
  because after execution the source value is gone (§3.2.1);
- **after**: classify the destination, combine with compile-time operand
  information (IMM_DOUBLE / GENERIC operands whose exceptional status is
  known at JIT time, Listings 1-2), and categorize the instruction into
  one of the Table-2 states.

Reports follow the format of the paper's Listings 3-7::

    #GPU-FPX-ANA SHARED REGISTER: Before executing the instruction @
    /unknown_path in [void cusparse::load_balancing_kernel]:0
    Instruction: FSEL R2, R5, R2, !P6 ; We have 3 registers in total.
    Register 0 is VAL. Register 1 is NaN. Register 2 is VAL.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from ..gpu.executor import InjectionCtx
from ..nvbit.plan import InstrumentationPlan, PlannedInjection
from ..nvbit.tool import NVBitTool
from ..sass.fpenc import (
    NAN,
    INF,
    VAL,
    class_name,
    classify_f32_bits,
    classify_f64_bits,
    classify_f32_value,
    classify_f64_value,
)
from ..sass.instruction import Instruction
from ..sass.isa import OpCategory
from ..sass.operands import OperandType
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import CTR_FLOW_EVENTS, EVT_FLOW
from .config import AnalyzerConfig
from .detector import select_check
from .records import FPFormat, SiteRegistry
from .states import FlowState, classify_state

__all__ = ["FPXAnalyzer", "FlowEvent"]

_CTRL_CATEGORIES = (OpCategory.FP32_CTRL, OpCategory.FP64_CTRL)


def _operand_width(instr: Instruction) -> int:
    """FP width used to classify this instruction's register operands."""
    if instr.opcode.startswith("D") or instr.is_64h():
        return 64
    return 32


def _classify_regs(warp, instr: Instruction, width: int) -> np.ndarray:
    """Classes of every register operand (dest first), per lane.

    Returns an array of shape (num_regs_in_list, 32) of fpenc codes.
    """
    regs = instr.reg_nums()
    out = np.zeros((len(regs), 32), dtype=np.uint8)
    for i, num in enumerate(regs):
        if width == 64:
            bits = (warp.read_u32(num).astype(np.uint64)
                    | (warp.read_u32(num + 1).astype(np.uint64)
                       << np.uint64(32)))
            out[i] = classify_f64_bits(bits)
        else:
            out[i] = classify_f32_bits(warp.read_u32(num))
    return out


def compile_time_exception(instr: Instruction) -> int:
    """Listing 2's JIT-time scan of IMM_DOUBLE / GENERIC operands.

    Returns an fpenc class code: NAN/INF when an immediate operand is an
    exceptional value, VAL otherwise.
    """
    for op in instr.source_operands():
        if op.type is OperandType.IMM_DOUBLE:
            v = op.value
            if v != v:
                return NAN
            if v in (float("inf"), float("-inf")):
                return INF
        elif op.type is OperandType.GENERIC:
            text = op.text.upper()
            if "NAN" in text:
                return NAN
            if "INF" in text:
                return INF
    return VAL


@dataclass
class FlowEvent:
    """One recorded analyzer observation."""

    state: FlowState
    kernel_name: str
    pc: int
    sass: str
    where: str
    #: representative per-register classes before/after execution
    classes_before: tuple[int, ...]
    classes_after: tuple[int, ...]
    fmt: FPFormat
    #: the instruction's register list (dest first), for provenance
    reg_nums: tuple[int, ...] = ()
    #: global sequence number (execution order across the run)
    seq: int = 0

    def _registers_text(self, classes: tuple[int, ...]) -> str:
        n = len(classes)
        regs = " ".join(f"Register {i} is {class_name(c)}."
                        for i, c in enumerate(classes))
        return f"We have {n} registers in total. {regs}"

    def lines(self) -> list[str]:
        """Render in the Listings 3-7 report format."""
        head = f"#GPU-FPX-ANA {self.state.value}:"
        body = (f"the instruction @ {self.where} "
                f"Instruction: {self.sass}")
        if self.state is FlowState.SHARED_REGISTER:
            return [
                f"{head} Before executing {body} "
                f"{self._registers_text(self.classes_before)}",
                f"{head} After executing {body} "
                f"{self._registers_text(self.classes_after)}",
            ]
        return [f"{head} After executing {body} "
                f"{self._registers_text(self.classes_after)}"]


class FPXAnalyzer(NVBitTool):
    """GPU-FPX's (relatively slower) flow-analysis component."""

    name = "gpu-fpx-analyzer"

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()
        self.sites = SiteRegistry()
        self.events: list[FlowEvent] = []
        #: state occurrence counts per (kernel, pc)
        self.state_counts: dict[tuple[str, int], Counter] = defaultdict(Counter)
        #: scratch: before-hook captures keyed by (warp id, pc)
        self._pending: dict[tuple[int, int], np.ndarray] = {}
        self._num: dict[str, int] = defaultdict(int)
        self._seq = 0

    def should_instrument(self, kernel_name: str) -> bool:
        self._num[kernel_name] += 1
        return True

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        # No ``cohort_fn`` on these entries: the analyzer keeps ordered
        # cross-injection state (the before-hook capture consumed by the
        # after-hook), so cohort-batched launches fall back to the serial
        # per-warp engine automatically.
        entries: list[PlannedInjection] = []
        sass = code.sass_lines()
        for instr in code:
            sel = select_check(instr)
            if sel is None and instr.category not in _CTRL_CATEGORIES:
                continue
            width = _operand_width(instr)
            fmt = FPFormat.FP64 if width == 64 else FPFormat.FP32
            self.sites.register(code.name, instr.pc, sass[instr.pc],
                                instr.source_loc, fmt,
                                visible=code.has_source_info)
            compile_e = compile_time_exception(instr)
            entries.append(PlannedInjection(
                instr.pc, "before", self._before, args=(width,)))
            entries.append(PlannedInjection(
                instr.pc, "after", self._after,
                args=(width, fmt, compile_e)))
        return InstrumentationPlan(self.name, code.name, tuple(entries))

    # -- injected device functions ------------------------------------------

    def _before(self, ictx: InjectionCtx) -> None:
        (width,) = ictx.args
        ictx.charge(ictx.launch.cost.analyzer_extra_cycles / 2)
        classes = _classify_regs(ictx.warp, ictx.instr, width)
        self._pending[(id(ictx.warp), ictx.instr.pc)] = classes

    def _after(self, ictx: InjectionCtx) -> None:
        width, fmt, compile_e = ictx.args
        ictx.charge(ictx.launch.cost.analyzer_extra_cycles / 2)
        instr = ictx.instr
        before = self._pending.pop((id(ictx.warp), instr.pc), None)
        after = _classify_regs(ictx.warp, instr, width)
        if before is None:
            before = after
        mask = ictx.exec_mask
        if not mask.any():
            return

        regs = instr.reg_nums()
        has_reg_dest = instr.dest_reg() is not None and bool(regs)
        # per-lane exceptional flags
        if has_reg_dest:
            dest_exc = (after[0] != VAL) & mask
            src_before = before[1:] if len(regs) > 1 else before[:0]
        else:
            dest_exc = np.zeros_like(mask)
            src_before = before
        srcs_exc = np.zeros_like(mask)
        if src_before.size:
            srcs_exc = (src_before != VAL).any(axis=0) & mask
        if compile_e != VAL:
            srcs_exc = srcs_exc | mask

        interesting = dest_exc | srcs_exc
        if not interesting.any():
            return

        lane = int(np.argmax(interesting))
        state = classify_state(
            shares_register=instr.shares_dest_with_source(),
            is_control_flow=instr.category in _CTRL_CATEGORIES,
            dest_exceptional=bool(dest_exc[lane]),
            sources_exceptional=bool(srcs_exc[lane]),
        )
        ictx.defer(self._record_flow, (
            state, fmt, tuple(int(c) for c in before[:, lane]),
            tuple(int(c) for c in after[:, lane])))

    def _record_flow(self, ictx: InjectionCtx) -> None:
        """Deferred half of :meth:`_after`: count and record one flow
        observation (replayed after the launch, in execution order)."""
        state, fmt, classes_before, classes_after = ictx.args
        instr = ictx.instr
        code = ictx.launch.code
        sass = code.sass_lines()[instr.pc]
        site = self.sites.site(self.sites.register(
            code.name, instr.pc, sass, instr.source_loc, fmt,
            visible=code.has_source_info))
        self.state_counts[(site.kernel_name, instr.pc)][state] += 1
        tel = get_telemetry()
        tel.count(CTR_FLOW_EVENTS)
        tel.event(EVT_FLOW,
                  state=state.value,
                  kernel=site.kernel_name,
                  pc=instr.pc,
                  opcode=instr.opcode,
                  where=site.where)
        if len(self.events) < self.config.max_report_events:
            self._seq += 1
            self.events.append(FlowEvent(
                state=state,
                kernel_name=site.kernel_name,
                pc=instr.pc,
                sass=sass,
                where=site.where,
                classes_before=classes_before,
                classes_after=classes_after,
                fmt=fmt,
                reg_nums=tuple(instr.reg_nums()),
                seq=self._seq,
            ))

    # -- reporting -------------------------------------------------------------

    def report_lines(self, *, last: int | None = None) -> list[str]:
        """All (or the trailing ``last``) report lines."""
        events = self.events if last is None else self.events[-last:]
        out: list[str] = []
        for ev in events:
            out.extend(ev.lines())
        return out

    def events_in_state(self, state: FlowState) -> list[FlowEvent]:
        return [e for e in self.events if e.state is state]

    def states_at(self, kernel_name: str, pc: int) -> Counter:
        return self.state_counts[(kernel_name, pc)]

    def flow_summary(self) -> Counter:
        """Total events per state across the run."""
        total: Counter = Counter()
        for counter in self.state_counts.values():
            total.update(counter)
        return total

    def to_json(self) -> dict:
        """The canonical versioned analyzer document.

        Mirrors :meth:`repro.fpx.report.ExceptionReport.to_json`: the
        CLI's ``--json`` and the ``repro.serve`` job API both emit this
        exact structure (``repro.fpx.report.REPORT_SCHEMA_VERSION``).
        """
        from .report import REPORT_SCHEMA_VERSION
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "flow_events": len(self.events),
            "states": {s.value: c for s, c in self.flow_summary().items()},
        }

    def events_json(self) -> list[dict]:
        """Flow events as plain JSON, in execution order (``seq``)."""
        return [{
            "classification": {
                "pc": ev.pc,
                "kind": ev.state.value,
                "fmt": ev.fmt.display,
            },
            "kernel": ev.kernel_name,
            "opcode": ev.sass.split()[0] if ev.sass else "?",
            "where": ev.where,
            "seq": ev.seq,
            "lines": ev.lines(),
        } for ev in self.events]

    def nan_stopped_at_selects(self) -> list[FlowEvent]:
        """FSEL events where a NaN source was *not* selected.

        This is the §5.2 signal: "in the boosted version, the NaN stops
        propagating at the FSEL instruction (meaning it is not selected)".
        """
        out = []
        for ev in self.events:
            if not ev.sass.startswith("FSEL"):
                continue
            src_nan = any(c == NAN for c in ev.classes_before[1:])
            dest_nan = ev.classes_after[0] == NAN
            if src_nan and not dest_nan:
                out.append(ev)
        return out
