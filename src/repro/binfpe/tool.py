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
from ..sass.isa import BINFPE_SUPPORTED_OPCODES
from ..sass.program import KernelCode
from ..fpx.records import (
    DecodedRecord,
    ExceptionKind,
    FPFormat,
    SiteRegistry,
    decode_record,
    encode_record,
)
from ..fpx.checks import kind_counts
from ..fpx.detector import DIV0_MODES, kernel_checks
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
        """The arithmetic sites of Algorithm 1's selection, each probed
        on the register(s) Algorithm 1 picks: an FP32 register, or an
        FP64 pair (``MUFU.RCP64H``'s high word included)."""
        entries: list[PlannedInjection] = []
        sass = code.sass_lines()
        for instr, mode, regs in kernel_checks(code):
            if instr.opcode not in BINFPE_SUPPORTED_OPCODES:
                continue
            fmt = FPFormat.FP64 if len(regs) == 2 else FPFormat.FP32
            loc = self.sites.register(
                code.name, instr.pc, sass[instr.pc], instr.source_loc,
                fmt, visible=code.has_source_info)
            entries.append(PlannedInjection(
                instr.pc, "after", self._record_dest,
                args=(regs, loc, fmt, mode in DIV0_MODES),
                cohort_fn=self._record_dest_cohort))
        return InstrumentationPlan(self.name, code.name, tuple(entries))

    # -- injected device code: ship every destination value -------------------
    # The exception kinds shipped alongside the values come from the probe
    # context's shared screen and classification of the destination; a
    # reciprocal's NaN/INF destination is reported as div-by-zero.

    def _record_dest(self, ictx: InjectionCtx) -> None:
        regs, loc, fmt, is_rcp = ictx.args
        lanes = int(np.count_nonzero(ictx.exec_mask))
        if lanes == 0:
            return
        counts = kind_counts(ictx.classify(regs), is_rcp) \
            if ictx.screen(regs) else {}
        # every active thread's value crosses the channel, exceptional or not
        ictx.defer(self._emit_values, (loc, fmt, counts, lanes))

    def _record_dest_cohort(self, cctx) -> None:
        """Whole-cohort probe: one shared classification over the stacked
        view, then one deferred per-warp emission so channel order stays
        canonical."""
        regs, loc, fmt, is_rcp = cctx.args
        lanes = cctx.exec_masks.sum(axis=1)
        if not lanes.any():
            return
        classes = cctx.classify(regs) if cctx.screen(regs) else None
        for i in range(cctx.n):
            if lanes[i]:
                counts = {} if classes is None \
                    else kind_counts(classes[i], is_rcp)
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
