"""The GPU-FPX *detector* (§3.1).

The detector instruments every Table-1 floating-point instruction with an
on-device check of the destination register (Algorithm 1 picks one of the
four specialized check functions), deduplicates exception records through
the GT table (Algorithm 2's warp-leader push), and sends only new records
across the GPU→CPU channel.  Selective instrumentation (Algorithm 3:
white-lists and FREQ-REDN-FACTOR undersampling) is implemented in
:meth:`FPXDetector.should_instrument`.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..gpu import executor as _executor
from ..gpu.executor import InjectionCtx
from ..nvbit.plan import InstrumentationPlan, PlannedInjection
from ..nvbit.tool import NVBitTool
from ..sass.instruction import Instruction
from ..sass.isa import OpCategory
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import CTR_EXCEPTIONS_PREFIX, EVT_EXCEPTION
from .checks import (
    any_exceptional_f32,
    check_16_nan_inf_sub,
    check_32_div0,
    check_32_nan_inf_sub,
    check_64_div0,
    check_64_nan_inf_sub,
)
from .config import DetectorConfig
from .gt import GlobalTable
from .records import (
    DecodedRecord,
    ExceptionKind,
    FPFormat,
    SiteRegistry,
    decode_record,
    encode_record,
)
from .report import ExceptionReport

__all__ = ["FPXDetector"]

#: Bytes per exception record on the channel (key + padding, Figure 3).
RECORD_BYTES = 8

# Algorithm 1 check modes.
_CHECK_32 = 0
_CHECK_64 = 1
_CHECK_32_DIV0 = 2
_CHECK_64_DIV0 = 3
_CHECK_16 = 4

#: Modes that check one FP32 register (screened before classifying).
_F32_MODES = (_CHECK_32, _CHECK_32_DIV0)

_FMT_OF_MODE = {
    _CHECK_32: FPFormat.FP32,
    _CHECK_64: FPFormat.FP64,
    _CHECK_32_DIV0: FPFormat.FP32,
    _CHECK_64_DIV0: FPFormat.FP64,
    _CHECK_16: FPFormat.FP16,
}


def select_check(instr: Instruction) -> tuple[int, tuple[int, ...]] | None:
    """Algorithm 1: pick the specialized injection function.

    Returns ``(mode, registers)`` or ``None`` when the instruction is not
    instrumented (no general-register destination, e.g. FSETP/DSETP, or a
    non-FP opcode).
    """
    dest = instr.dest_reg()
    if dest is None:
        return None
    if instr.is_mufu_rcp():
        if instr.is_64h():
            # the register stores the high 32 bits of the FP64 value
            return _CHECK_64_DIV0, (dest - 1, dest)
        return _CHECK_32_DIV0, (dest,)
    cat = instr.category
    if cat in (OpCategory.FP32_ARITH, OpCategory.SFU, OpCategory.FP32_CTRL):
        return _CHECK_32, (dest,)
    if cat is OpCategory.FP64_ARITH:
        if instr.is_64h():
            return _CHECK_64, (dest - 1, dest)
        return _CHECK_64, (dest, dest + 1)
    if cat is OpCategory.FP16_ARITH:
        return _CHECK_16, (dest,)
    return None


def run_check(mode: int, warp, regs: tuple[int, ...]) -> np.ndarray:
    """Invoke the specialized check; returns per-lane ExceptionKind codes."""
    if mode == _CHECK_32:
        return check_32_nan_inf_sub(warp, regs[0])
    if mode == _CHECK_64:
        return check_64_nan_inf_sub(warp, regs[0], regs[1])
    if mode == _CHECK_32_DIV0:
        return check_32_div0(warp, regs[0])
    if mode == _CHECK_64_DIV0:
        return check_64_div0(warp, regs[0], regs[1])
    if mode == _CHECK_16:
        return check_16_nan_inf_sub(warp, regs[0])
    raise AssertionError(f"bad check mode {mode}")


class FPXDetector(NVBitTool):
    """GPU-FPX's fast screening component."""

    name = "gpu-fpx-detector"

    #: Per-member launch state swapped by :meth:`bind_member` (the
    #: ``sites`` registry is *shared*: members run the same plan, so
    #: their loc indices coincide by construction).
    _MEMBER_STATE_FIELDS = ("gt", "_arrival", "_host_counts", "_num",
                            "notifications")

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.dedups_channel_messages = (self.config.use_gt
                                        and self.config.on_device_check)
        self.sites = SiteRegistry()
        # GT lives in device memory and only participates when the check
        # itself runs on the device
        self.gt: GlobalTable | None = GlobalTable() \
            if self.config.use_gt and self.config.on_device_check else None
        #: Record key → its first-arrival position (host side).
        self._arrival: dict[int, int] = {}
        #: Host-side occurrence counts (used when GT is disabled).
        self._host_counts: dict[int, int] = defaultdict(int)
        #: Algorithm 3's per-kernel invocation counters.
        self._num: dict[str, int] = defaultdict(int)
        #: Early-notification log lines (Listing 6 format).
        self.notifications: list[str] = []
        #: Megabatch member whose state is currently live (the
        #: detector's own fields always hold member 0 to begin with, so
        #: ordinary non-batch sessions never notice the partitioning).
        self._member = 0
        self._member_states: dict[int, dict] = {}

    # -- megabatch member partitioning ---------------------------------------

    def _fresh_member_state(self) -> dict:
        """A new member's host-side state — what a fresh detector with
        this config would start from."""
        return {
            "gt": GlobalTable()
            if self.config.use_gt and self.config.on_device_check else None,
            "_arrival": {},
            "_host_counts": defaultdict(int),
            "_num": defaultdict(int),
            "notifications": [],
        }

    def bind_member(self, member: int) -> None:
        """Swap in member ``member``'s state (GT, arrival map, Algorithm-3
        counters, notifications).  The megabatch runtime binds before
        each member's decision poll, deferred replay and channel drain,
        so each member behaves exactly like a launch under its own fresh
        detector."""
        if member == self._member:
            return
        self._member_states[self._member] = {
            f: getattr(self, f) for f in self._MEMBER_STATE_FIELDS}
        state = self._member_states.pop(member, None)
        if state is None:
            state = self._fresh_member_state()
        for f, v in state.items():
            setattr(self, f, v)
        self._member = member

    # -- NVBit callbacks ------------------------------------------------------

    def on_context_start(self, run) -> None:
        if self.gt is not None:
            run.charge_gt_alloc()

    def should_instrument(self, kernel_name: str) -> bool:
        """Algorithm 3: white-list plus once-every-k undersampling."""
        cfg = self.config
        instr = True
        if cfg.kernel_whitelist is not None:
            instr = kernel_name in cfg.kernel_whitelist
        k = cfg.freq_redn_factor
        if k and self._num[kernel_name] % k != 0:
            instr = False
        self._num[kernel_name] += 1
        return instr

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        """Algorithm 1, declaratively: one planned check per FP site."""
        entries: list[PlannedInjection] = []
        for instr in code:
            sel = select_check(instr)
            if sel is None:
                continue
            mode, regs = sel
            if mode == _CHECK_16 and not self.config.check_fp16:
                continue
            fmt = _FMT_OF_MODE[mode]
            loc = self.sites.register(
                code.name, instr.pc, instr.getSASS(), instr.source_loc,
                fmt, visible=code.has_source_info)
            entries.append(PlannedInjection(
                instr.pc, "after", self._device_check,
                args=(mode, regs, loc, fmt),
                cohort_fn=self._device_check_cohort))
        return InstrumentationPlan(self.name, code.name, tuple(entries))

    # -- injected device code (Algorithm 2) ------------------------------------

    @staticmethod
    def _kind_counts(e: np.ndarray) -> dict[int, int]:
        """Per-ExceptionKind lane counts of one warp's check result."""
        exc = e[e > 0]
        return {int(k): int((exc == k).sum()) for k in np.unique(exc)}

    def _device_check(self, ictx: InjectionCtx) -> None:
        mode, regs, loc, fmt = ictx.args
        if not self.config.on_device_check:
            # Ablation mode: ship every destination value to the host and
            # classify there (the strategy GPU-FPX abandoned; §3.1 "the
            # checking process takes place on the GPU device rather than
            # the host").  Coverage stays GPU-FPX's (all Table 1 opcodes).
            lanes = int(ictx.exec_mask.sum())
            if lanes == 0:
                return
            e = run_check(mode, ictx.warp, regs)
            e = np.where(ictx.exec_mask, e, np.uint8(0))
            ictx.defer(self._emit_host_values,
                       (loc, fmt, self._kind_counts(e), lanes))
            return
        ictx.charge(ictx.launch.cost.device_check_cycles)
        if mode in _F32_MODES and not any_exceptional_f32(
                ictx.warp.read_u32(regs[0]), ictx.exec_mask):
            return
        e = run_check(mode, ictx.warp, regs)
        e = np.where(ictx.exec_mask, e, np.uint8(0))
        if not e.any():
            return
        ictx.defer(self._emit_records, (self._kind_counts(e), loc, fmt))

    def _device_check_cohort(self, cctx) -> None:
        """One probe for a whole warp cohort: the register check runs
        vectorised over the stacked ``(n, 32)`` view; emissions are
        deferred per warp so the channel stream keeps canonical order."""
        mode, regs, loc, fmt = cctx.args
        masks = cctx.exec_masks
        if not self.config.on_device_check:
            lanes = masks.sum(axis=1)
            if not lanes.any():
                return
            e = run_check(mode, cctx.cohort, regs)
            e = np.where(masks, e, np.uint8(0))
            for i in range(cctx.n):
                if lanes[i]:
                    cctx.defer(i, self._emit_host_values,
                               (loc, fmt, self._kind_counts(e[i]),
                                int(lanes[i])))
            return
        cctx.charge_per_warp(cctx.launch.cost.device_check_cycles)
        if mode in _F32_MODES and not any_exceptional_f32(
                cctx.cohort.read_u32(regs[0]), masks):
            return
        e = run_check(mode, cctx.cohort, regs)
        e = np.where(masks, e, np.uint8(0))
        if not e.any():
            return
        for i in np.nonzero(e.any(axis=1))[0]:
            cctx.defer(int(i), self._emit_records,
                       (self._kind_counts(e[i]), loc, fmt))

    def _push_records(self, ictx: InjectionCtx, kind_counts: dict[int, int],
                      loc: int, fmt) -> None:
        # Warp leader: one GT update per ⟨E_exce, E_loc, E_fp⟩ combination,
        # carrying that kind's lane count.  Kinds ascend and E_exce is
        # the key's high field, so new records go out in ascending key
        # order.
        if self.gt is not None:
            ictx.charge(ictx.launch.cost.gt_lookup_cycles * len(kind_counts))
            for code, count in kind_counts.items():
                key = encode_record(ExceptionKind(code), loc, fmt)
                if self.gt.test_and_set(key, count):
                    ictx.push_message(("fpx-record", key), RECORD_BYTES)
        else:
            # w/o GT: the leader pushes one record per exceptional thread
            for code, count in kind_counts.items():
                key = encode_record(ExceptionKind(code), loc, fmt)
                ictx.push_bulk(("fpx-occurrences", key, count), count,
                               RECORD_BYTES)

    def _push_host_values(self, ictx: InjectionCtx, loc: int, fmt,
                          kind_counts: dict[int, int], lanes: int) -> None:
        ictx.push_bulk(("fpx-host-values", loc, fmt, kind_counts), lanes, 16)

    # deferred-emission trampolines (replayed after the launch)

    def _emit_records(self, ictx: InjectionCtx) -> None:
        kind_counts, loc, fmt = ictx.args
        self._push_records(ictx, kind_counts, loc, fmt)

    def _emit_host_values(self, ictx: InjectionCtx) -> None:
        loc, fmt, kind_counts, lanes = ictx.args
        self._push_host_values(ictx, loc, fmt, kind_counts, lanes)

    # -- host side ----------------------------------------------------------------

    def receive(self, messages) -> None:
        for msg in messages:
            tag = msg[0]
            if tag == "fpx-record":
                self._note(msg[1])
            elif tag == "fpx-occurrences":
                _, key, count = msg
                self._host_counts[key] += count
                self._note(key)
            elif tag == "fpx-host-values":
                # host-side checking (on_device_check=False ablation)
                _, loc, fmt, kind_counts = msg
                for code, count in kind_counts.items():
                    key = encode_record(ExceptionKind(code), loc, fmt)
                    self._host_counts[key] += count
                    self._note(key)

    def _note(self, key: int) -> None:
        if key in self._arrival:
            return
        self._arrival[key] = len(self._arrival)
        record = decode_record(key)
        site = self.sites.site(record.loc)
        self.notifications.append(
            f"#GPU-FPX LOC-EXCEP INFO: in kernel [{site.kernel_name}], "
            f"{record.kind.display} found @ {site.where} "
            f"[{record.fmt.display}]")
        # The §5 provenance record: one structured event per unique
        # exception, carrying everything a user would act on.
        tel = get_telemetry()
        tel.event(EVT_EXCEPTION,
                  kernel=site.kernel_name,
                  pc=site.pc,
                  opcode=site.sass.split()[0] if site.sass else "?",
                  kind=record.kind.name,
                  fmt=record.fmt.display,
                  where=site.where,
                  key=key)
        tel.count(CTR_EXCEPTIONS_PREFIX + record.kind.name.lower())
        # Feed the hotspot profiler (when installed) so `repro profile
        # hotspots` shows exception sites next to the cycle sinks.
        profile = _executor._PROFILE
        if profile is not None:
            profile.add_exception(site.kernel_name, site.pc)

    # -- results --------------------------------------------------------------------

    def report(self) -> ExceptionReport:
        """Build the final exception report (Table-4 counting)."""
        records: list[DecodedRecord] = []
        occurrences: dict[int, int] = {}
        if self.gt is not None:
            # arrival order first; keys that never arrived go last
            last = len(self._arrival)
            keys = sorted(self.gt.recorded_keys(),
                          key=lambda k: self._arrival.get(k, last))
            for key in keys:
                records.append(decode_record(key))
                occurrences[key] = self.gt.occurrences(key)
        else:
            for key in self._arrival:
                records.append(decode_record(key))
                occurrences[key] = self._host_counts[key]
        return ExceptionReport(records=records, sites=self.sites,
                               occurrences=occurrences)
