"""Reimplementation of BinFPE (Laguna, Li, Gopalakrishnan, SOAP 2022).

BinFPE is the comparison baseline (§2.3): an NVBit tool that instruments
each floating-point *arithmetic* instruction — only the computation
column of Table 1; FSEL / FSET / FSETP / FMNMX / DSETP are **not**
instrumented, which is why control-flow-altering exceptions are missed —
records the destination registers of every thread, and ships the values
to the host, where the exception check happens.

The design costs reproduced here:

- one channel message per *thread* per dynamic FP instruction (whether or
  not an exception occurred): "it transmits data far in excess of what is
  required ... which can bog down the GPU-to-CPU communication channel";
- host-side checking (per-value work on the receiving thread);
- no deduplication — the same exception at the same location is shipped
  and reported again on every execution;
- the same per-launch NVBit JIT cost GPU-FPX pays.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..gpu.executor import InjectionCtx
from ..nvbit.plan import InstrumentationPlan, PlannedInjection
from ..nvbit.tool import NVBitTool
from ..sass.fpenc import classify_f32_bits, classify_f64_bits
from ..sass.isa import BINFPE_SUPPORTED_OPCODES, OpCategory
from ..sass.program import KernelCode
from ..fpx.records import (
    DecodedRecord,
    ExceptionKind,
    FPFormat,
    SiteRegistry,
    decode_record,
    encode_record,
)
from ..fpx.checks import CLASS_TO_KIND, any_exceptional_f32
from ..fpx.report import ExceptionReport

__all__ = ["BinFPE"]

#: Bytes per shipped value: location id + 64-bit register payload.
VALUE_BYTES = 16


class BinFPE(NVBitTool):
    """The baseline exception-detection tool."""

    name = "binfpe"

    def __init__(self) -> None:
        self.sites = SiteRegistry()
        self._arrival: list[int] = []
        self._seen: set[int] = set()
        self._host_counts: dict[int, int] = defaultdict(int)

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        entries: list[PlannedInjection] = []
        for instr in code:
            if instr.opcode not in BINFPE_SUPPORTED_OPCODES:
                continue
            dest = instr.dest_reg()
            if dest is None:
                continue
            if instr.is_mufu_rcp() and instr.is_64h():
                fmt, regs = FPFormat.FP64, (dest - 1, dest)
            elif instr.category is OpCategory.FP64_ARITH:
                fmt, regs = FPFormat.FP64, (dest, dest + 1)
            else:
                fmt, regs = FPFormat.FP32, (dest,)
            loc = self.sites.register(
                code.name, instr.pc, instr.getSASS(), instr.source_loc,
                fmt, visible=code.has_source_info)
            entries.append(PlannedInjection(
                instr.pc, "after", self._record_dest,
                args=(regs, loc, fmt, instr.is_mufu_rcp()),
                cohort_fn=self._record_dest_cohort))
        return InstrumentationPlan(self.name, code.name, tuple(entries))

    # -- injected device code: ship every destination value -------------------

    @staticmethod
    def _classify(warp, regs, fmt, is_rcp, mask) -> np.ndarray:
        """Per-lane exception kinds of the destination register(s).

        Shape-generic: ``warp`` may be one :class:`~repro.gpu.warp.Warp`
        (``mask`` of shape ``(32,)``) or a cohort view (``(n, 32)``)."""
        if fmt is FPFormat.FP64:
            bits = (warp.read_u32(regs[0]).astype(np.uint64)
                    | (warp.read_u32(regs[1]).astype(np.uint64)
                       << np.uint64(32)))
            codes = classify_f64_bits(bits)
        else:
            codes = classify_f32_bits(warp.read_u32(regs[0]))
        kinds = CLASS_TO_KIND[codes]
        if is_rcp:
            # BinFPE also reports div-by-zero for reciprocal NaN/INF dests
            kinds = np.where(
                (kinds == int(ExceptionKind.NAN))
                | (kinds == int(ExceptionKind.INF)),
                np.uint8(int(ExceptionKind.DIV0)), np.uint8(0))
        return np.where(mask, kinds, np.uint8(0))

    @staticmethod
    def _exc_counts(kinds: np.ndarray) -> dict[int, int]:
        return {int(k): int((kinds == k).sum())
                for k in np.unique(kinds[kinds > 0])}

    def _record_dest(self, ictx: InjectionCtx) -> None:
        regs, loc, fmt, is_rcp = ictx.args
        mask = ictx.exec_mask
        lanes = int(np.count_nonzero(mask))
        if lanes == 0:
            return
        if fmt is FPFormat.FP32 and not any_exceptional_f32(
                ictx.warp.read_u32(regs[0]), mask):
            counts = {}
        else:
            counts = self._exc_counts(
                self._classify(ictx.warp, regs, fmt, is_rcp, mask))
        # every active thread's value crosses the channel, exceptional or not
        ictx.defer(self._emit_values, (loc, fmt, counts, lanes))

    def _record_dest_cohort(self, cctx) -> None:
        """Whole-cohort probe: classify once over the stacked view, then
        defer one per-warp emission so channel order stays canonical."""
        regs, loc, fmt, is_rcp = cctx.args
        masks = cctx.exec_masks
        lanes = masks.sum(axis=1)
        if not lanes.any():
            return
        kinds = None
        if fmt is not FPFormat.FP32 or any_exceptional_f32(
                cctx.cohort.read_u32(regs[0]), masks):
            kinds = self._classify(cctx.cohort, regs, fmt, is_rcp, masks)
        for i in range(cctx.n):
            if lanes[i]:
                counts = {} if kinds is None else self._exc_counts(kinds[i])
                cctx.defer(i, self._emit_values,
                           (loc, fmt, counts, int(lanes[i])))

    def _emit_values(self, ictx: InjectionCtx) -> None:
        loc, fmt, exc_counts, lanes = ictx.args
        ictx.push_bulk(("binfpe-values", loc, fmt, exc_counts), lanes,
                       VALUE_BYTES)

    # -- host side: the exception check happens here ---------------------------

    def receive(self, messages) -> None:
        for msg in messages:
            if msg[0] != "binfpe-values":
                continue
            _, loc, fmt, exc_counts = msg
            for kind_code, count in exc_counts.items():
                key = encode_record(ExceptionKind(kind_code), loc, fmt)
                self._host_counts[key] += count
                if key not in self._seen:
                    self._seen.add(key)
                    self._arrival.append(key)

    def report(self) -> ExceptionReport:
        records = [decode_record(k) for k in self._arrival]
        occurrences = {k: self._host_counts[k] for k in self._arrival}
        return ExceptionReport(records=records, sites=self.sites,
                               occurrences=occurrences)
