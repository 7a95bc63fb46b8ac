"""The SIMT instruction executor.

Executes one kernel launch: every block, warp by warp (round-robin across
BAR.SYNC barriers), with NumPy-vectorised 32-lane semantics per
instruction.  Instrumentation hooks — the analogue of NVBit's injected
device functions — run before/after chosen instructions and receive an
:class:`InjectionCtx` exposing the warp, the execution mask, and charge /
channel-push facilities.

Numerical notes:

- FP32 three-input FMA is evaluated in float64 (exact product, one extra
  rounding on the sum); this can differ from a hardware FFMA only in
  rare double-rounding ties, which no workload in this repo depends on.
- FP64 DFMA is evaluated with a Dekker/Knuth compensated product+sum, so
  fused-contraction effects (a*b+c with c = -round(a*b) leaving a
  subnormal residual — the Table 6 mechanism) are reproduced exactly.
- ``.FTZ`` flushes subnormal FP32 inputs and outputs to sign-preserving
  zero, as ``--use_fast_math`` code generation does.
- Floating-point error reporting is off for a whole launch:
  :func:`execute_launch` and :func:`execute_megabatch` run under one
  ``np.errstate(all="ignore")``, so the per-op semantics never pay
  for entering it.

Execution is bounded: a launch may run at most
:data:`WARP_INSTR_BUDGET` warp instructions per warp, checked once per
loop step in every engine, so a kernel that never exits raises
:class:`ExecutionError` instead of hanging its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from ..sass.instruction import Instruction
from ..sass.operands import Operand, OperandType, RZ
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import CTR_CHANNEL_BYTES, CTR_DIVERGENT_BRANCHES
from .cost import CostModel, LaunchStats
from .memory import ConstBanks, GlobalMemory, SharedMemory
from .sfu import mufu_f32, mufu_rcp64h
from .shadow import shadow_slots
from .warp import FULL_MASK, WARP_SIZE, CohortView, Warp, WarpSet

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .decode import DecodedProgram

__all__ = ["Injection", "InjectionCtx", "CohortInjectionCtx", "Ledger",
           "LaunchContext", "execute_launch", "execute_megabatch",
           "replay", "ExecutionError", "WARP_INSTR_BUDGET", "fp_compare"]


class ExecutionError(RuntimeError):
    """Raised for malformed programs at runtime (bad operands, a kernel
    that runs past its execution budget, etc.)."""


#: Most warp instructions one warp may execute in a launch; a launch of
#: ``n`` warps stops with :class:`ExecutionError` past ``n`` times this.
#: Sized from measurement: the busiest warp over all 151 programs runs
#: 5,488 (mri-q, 1x32) and the largest launch 6,416 over two warps
#: (spmv, 1x64); conformance and serve kernels stay under 100 per warp.
WARP_INSTR_BUDGET = 1 << 16


def _over_budget(code: KernelCode, limit: int) -> ExecutionError:
    return ExecutionError(
        f"{code.name}: exceeded the execution budget of {limit} warp "
        f"instructions ({WARP_INSTR_BUDGET} per warp); the kernel does "
        f"not exit")


@dataclass(slots=True)
class Injection:
    """One injected device-function call at a specific pc."""

    when: str  # "before" | "after"
    fn: Callable[["InjectionCtx"], None]
    args: tuple = ()
    #: Cohort-aware variant of ``fn``: called once per warp cohort with a
    #: :class:`CohortInjectionCtx` instead of once per warp.  ``None``
    #: keeps the launch on the serial per-warp engine.
    cohort_fn: "Callable[[CohortInjectionCtx], None] | None" = None
    #: Index of the observer (the tool) this call belongs to; its
    #: charges, pushes and deferred emissions land in that observer's
    #: :class:`Ledger`.
    observer: int = 0


@dataclass(slots=True)
class Ledger:
    """One observer's share of one launch.

    Probes charge ``stats`` (injected calls and cycles), pushes land in
    ``stats`` and ``channel``, and :meth:`InjectionCtx.defer` appends to
    ``emissions``.  The engines leave ``emissions`` in canonical order —
    (block, barrier phase, warp, program order) — as
    ``(launch, fn, warp, instr, mask, args)`` tuples for :func:`replay`.
    """

    stats: LaunchStats
    channel: "Channel | None" = None
    emissions: list = field(default_factory=list)


def replay(emissions: list, ledger: Ledger) -> None:
    """Run deferred emissions, in order, against ``ledger``: their
    charges and pushes land in its stats and channel."""
    for launch, fn, warp, instr, mask, args in emissions:
        fn(InjectionCtx(launch, ledger, warp, instr, mask, args))


def _charge_calls(launch: "LaunchContext", calls: list[int]) -> None:
    """Charge each observer's ledger for its injected calls (the call
    charge is integer-valued, so one batched product is exact)."""
    call_cycles = launch.cost.injection_call_cycles
    for observer, n in enumerate(calls):
        if n:
            stats = launch.ledgers[observer].stats
            stats.injected_calls += n
            stats.injected_cycles += n * call_cycles


def _sort_emissions(ledgers) -> None:
    """Put the batched engines' keyed emissions into canonical order and
    drop the sort keys (the serial loops already emit in that order)."""
    for ledger in ledgers:
        if ledger is not None and ledger.emissions:
            ledger.emissions.sort(key=lambda e: e[:4])
            ledger.emissions[:] = [e[4:] for e in ledger.emissions]


@dataclass
class LaunchContext:
    """Everything one launch can touch."""

    code: KernelCode
    global_mem: GlobalMemory
    cbanks: ConstBanks
    #: The execution's own counts (instructions, base cycles); every
    #: observer's charges go to its ledger instead.
    stats: LaunchStats
    cost: CostModel
    grid_dim: int
    block_dim: int
    #: Observer index -> :class:`Ledger`, ``None`` for observers that do
    #: not instrument this launch (emptied once the launch has run).
    ledgers: list = field(default_factory=list)
    shared: SharedMemory | None = None
    #: pc -> injections, split by phase for dispatch speed (legacy path).
    before: dict[int, list[Injection]] = field(default_factory=dict)
    after: dict[int, list[Injection]] = field(default_factory=dict)
    #: Pre-decoded micro-op program; when set, warps run the decoded loop
    #: and the ``before``/``after`` dicts are ignored (injections are
    #: fused into the program's per-op slots).
    decoded: "DecodedProgram | None" = None
    #: Allow the warp-cohort batched engine (used when the decoded
    #: program is cohort-ready and the launch has more than one warp).
    warp_batch: bool = True
    #: Per-launch shadow-precision plane (``ShadowState`` from
    #: :mod:`repro.gpu.shadow`), or ``None`` when shadowing is off.
    shadow: "object | None" = None


@dataclass(slots=True)
class InjectionCtx:
    """Argument bundle passed to injected device functions.

    A probe reads warp state now and charges its observer's ledger;
    anything it emits (channel pushes, tool-state updates) goes through
    :meth:`defer`.  Replayed emissions get a context of this type too,
    whose ledger is the invocation being accounted.
    """

    launch: LaunchContext
    ledger: Ledger
    warp: Warp
    instr: Instruction
    exec_mask: np.ndarray
    args: tuple = ()

    def charge(self, cycles: float) -> None:
        """Charge device cycles to this launch (tool-side overhead)."""
        self.ledger.stats.injected_cycles += cycles

    def push_message(self, payload: object, nbytes: int) -> None:
        """Push one record into the GPU->CPU channel."""
        stats = self.ledger.stats
        stats.channel_messages += 1
        stats.channel_bytes += nbytes
        stats.injected_cycles += self.launch.cost.channel_push_cycles
        get_telemetry().count(CTR_CHANNEL_BYTES, nbytes)
        if self.ledger.channel is not None:
            self.ledger.channel.push(payload)

    def push_bulk(self, payload: object, count: int, nbytes_each: int) -> None:
        """Push ``count`` equal-cost messages carried by one payload.

        Used when a tool ships one record per thread (BinFPE, or GPU-FPX
        without GT): the cost accounting sees ``count`` messages but the
        simulator materialises a single host-side object.
        """
        if count <= 0:
            return
        stats = self.ledger.stats
        stats.channel_messages += count
        stats.channel_bytes += count * nbytes_each
        stats.injected_cycles += self.launch.cost.channel_push_cycles * count
        get_telemetry().count(CTR_CHANNEL_BYTES, count * nbytes_each)
        if self.ledger.channel is not None:
            self.ledger.channel.push(payload)

    def defer(self, fn: Callable[["InjectionCtx"], None],
              args: tuple = ()) -> None:
        """Queue ``fn(InjectionCtx(...))`` for replay at launch end, in
        call order (the serial engines' canonical order).  ``fn`` must
        not read register state — ship computed values through
        ``args``."""
        self.ledger.emissions.append(
            (self.launch, fn, self.warp, self.instr, self.exec_mask, args))


@dataclass(slots=True)
class CohortInjectionCtx:
    """Argument bundle passed to cohort-aware injected device functions.

    One probe covers every warp of a pc cohort: ``cohort`` is the
    stacked register view (rows in ascending warp order) and
    ``exec_masks`` the matching ``(n, 32)`` execution masks.  Anything
    that must read register state happens *now*, vectorised over the
    stack; anything that emits (channel pushes, GT updates) is handed to
    :meth:`defer`, which the engine sorts into canonical legacy order —
    (block, barrier phase, warp, program order) — so the channel record
    stream is bit-identical to the serial engine's.
    """

    launch: LaunchContext
    ledger: Ledger
    cohort: "CohortView"
    instr: Instruction
    exec_masks: np.ndarray  # (n, WARP_SIZE)
    args: tuple = ()
    _defer: Callable = None
    #: Per-row stats targets (megabatch cohorts span member launches, so a
    #: flat cohort-wide charge would land on one member's ledger).  ``None``
    #: outside the megabatch engine.
    row_stats: "tuple[LaunchStats, ...] | None" = None

    @property
    def n(self) -> int:
        """Number of warps in the cohort."""
        return self.exec_masks.shape[0]

    def charge(self, cycles: float) -> None:
        """Charge device cycles to this launch (tool-side overhead)."""
        self.ledger.stats.injected_cycles += cycles

    def charge_per_warp(self, cycles: float) -> None:
        """Charge ``cycles`` once per cohort warp, to each warp's own
        launch.  Equivalent to ``charge(cycles * n)`` for ordinary
        launches (cycle constants are integer-valued, so the split sum is
        exact); under the megabatch engine each member launch is charged
        only for its own warps."""
        if self.row_stats is None:
            self.ledger.stats.injected_cycles += cycles * self.n
        else:
            for st in self.row_stats:
                st.injected_cycles += cycles

    def defer(self, row: int, fn: Callable[["InjectionCtx"], None],
              args: tuple = ()) -> None:
        """Queue ``fn(InjectionCtx(...))`` for cohort warp ``row``,
        replayed after the launch in canonical warp order.  ``fn`` must
        not read register state (it has moved on by replay time) — ship
        any computed values through ``args``."""
        self._defer(self.ledger, row, fn, args)


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

_F32_TINY = np.float32(1.1754944e-38)  # smallest normal FP32


def _ftz32(x: np.ndarray) -> np.ndarray:
    """Flush FP32 subnormals to sign-preserving zero."""
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    sub = ((bits & np.uint32(0x7F800000)) == 0) & \
          ((bits & np.uint32(0x007FFFFF)) != 0)
    if not sub.any():
        return x
    out = np.where(sub, (bits & np.uint32(0x80000000)), bits.copy())
    return out.astype(np.uint32).view(np.float32)


_SPLITTER = np.float64(134217729.0)  # 2**27 + 1 (Dekker)


def _fma64(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Compensated fused multiply-add for float64 lanes (runs under the
    launch's ``errstate``, like every per-op helper here)."""
    plain = a * b + c
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & \
        np.isfinite(a * b)
    # moderate magnitudes only: Dekker splitting overflows near 1e300
    safe = finite & (np.abs(a) < 1e150) & (np.abs(b) < 1e150)
    if not safe.any():
        return plain
    aa = a * _SPLITTER
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = b * _SPLITTER
    bhi = bb - (bb - b)
    blo = b - bhi
    p = a * b
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    s = p + c
    v = s - p
    f = (p - (s - v)) + (c - v)
    comp = s + (e + f)
    return np.where(safe, comp, plain)


def _ffma32(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """FP32 FMA via float64 (exact product; one extra rounding on sum)."""
    return (a.astype(np.float64) * b.astype(np.float64)
            + c.astype(np.float64)).astype(np.float32)


_GENERIC_FP = {
    "+INF": np.inf, "INF": np.inf, "-INF": -np.inf,
    "+QNAN": np.nan, "-QNAN": np.nan, "QNAN": np.nan,
    "+NAN": np.nan, "-NAN": np.nan,
}

#: Fault-injection flags for conformance testing (test-only; see
#: :mod:`repro.conformance.mutation`).  Handlers consult this set to
#: deliberately mis-execute — e.g. ``"legacy-fp32-drop-ftz-flush"``
#: makes the legacy interpreter skip the FTZ output flush so the
#: differential engine can prove it catches a single-path bug.  Empty
#: in production; the membership test on an empty set is ~free.
_MUTATIONS: set[str] = set()

#: The per-pc hotspot profiler sink (a
#: :class:`repro.harness.profile.ProfileTable`), or ``None`` when
#: profiling is off.  Module-level like :data:`_MUTATIONS` so the
#: executor keeps no import edge to the harness; installed for a scope
#: by :func:`repro.harness.profile.profile_pcs`.  Every hot loop guards
#: its feed with ``if _PROFILE is not None`` — one global load per
#: instruction when off.
_PROFILE = None


def set_profile_sink(sink) -> None:
    """Install (or clear, with ``None``) the per-pc profiling sink."""
    global _PROFILE
    _PROFILE = sink


def _apply_srcmods(vals: np.ndarray, op: Operand) -> np.ndarray:
    if op.absolute:
        vals = np.abs(vals)
    if op.negated:
        vals = -vals
    return vals


_CMP_MODS = ("LT", "GT", "LE", "GE", "EQ", "NE", "NEU", "LTU", "GTU",
             "GEU", "LEU")


def fp_compare(a: np.ndarray, b: np.ndarray, cmp: str) -> np.ndarray:
    """Lane-wise SASS comparison (ordered and unordered variants)."""
    if cmp == "LT":
        return a < b
    if cmp == "GT":
        return a > b
    if cmp == "LE":
        return a <= b
    if cmp == "GE":
        return a >= b
    if cmp == "EQ":
        return a == b
    if cmp == "NE":
        return (a != b) & ~(np.isnan(a) | np.isnan(b))
    unordered = np.isnan(a) | np.isnan(b)
    if cmp == "NEU":
        return (a != b) | unordered
    if cmp == "LTU":
        return (a < b) | unordered
    if cmp == "GTU":
        return (a > b) | unordered
    if cmp == "GEU":
        return (a >= b) | unordered
    if cmp == "LEU":
        return (a <= b) | unordered
    raise ExecutionError(f"unknown comparison {cmp}")


class _WarpRunner:
    """Executes one warp against a launch context."""

    def __init__(self, launch: LaunchContext, warp: Warp) -> None:
        self.launch = launch
        self.warp = warp
        self.code = launch.code
        self.instrs = launch.code.instructions
        self.n = len(launch.code)

    # -- operand reads ------------------------------------------------------

    def src_f32(self, op: Operand) -> np.ndarray:
        t = op.type
        if t is OperandType.REG:
            vals = self.warp.read_f32(op.num)
        elif t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE, np.float32(op.value), dtype=np.float32)
        elif t is OperandType.GENERIC:
            text = op.text.upper()
            if text in _GENERIC_FP:
                vals = np.full(WARP_SIZE, np.float32(_GENERIC_FP[text]),
                               dtype=np.float32)
            else:
                raise ExecutionError(f"bad GENERIC fp operand {op.text!r}")
        elif t is OperandType.CBANK:
            bits = self.launch.cbanks.read_u32(op.cbank_id, op.offset)
            vals = np.full(WARP_SIZE, np.uint32(bits),
                           dtype=np.uint32).view(np.float32)
        else:
            raise ExecutionError(f"operand not usable as f32 source: {op}")
        return _apply_srcmods(vals, op)

    def src_f64(self, op: Operand) -> np.ndarray:
        t = op.type
        if t is OperandType.REG:
            vals = self.warp.read_f64_pair(op.num)
        elif t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE, np.float64(op.value), dtype=np.float64)
        elif t is OperandType.GENERIC:
            text = op.text.upper()
            if text in _GENERIC_FP:
                vals = np.full(WARP_SIZE, np.float64(_GENERIC_FP[text]),
                               dtype=np.float64)
            else:
                raise ExecutionError(f"bad GENERIC fp operand {op.text!r}")
        elif t is OperandType.CBANK:
            bits = self.launch.cbanks.read_u64(op.cbank_id, op.offset)
            vals = np.full(WARP_SIZE, np.uint64(bits),
                           dtype=np.uint64).view(np.float64)
        else:
            raise ExecutionError(f"operand not usable as f64 source: {op}")
        return _apply_srcmods(vals, op)

    def src_u32(self, op: Operand) -> np.ndarray:
        t = op.type
        if t is OperandType.REG:
            vals = self.warp.read_u32(op.num).copy()
        elif t is OperandType.IMM_INT:
            vals = np.full(WARP_SIZE, np.uint32(op.ivalue & 0xFFFFFFFF),
                           dtype=np.uint32)
        elif t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE,
                           np.float32(op.value), dtype=np.float32).view(np.uint32)
        elif t is OperandType.CBANK:
            vals = np.full(
                WARP_SIZE,
                np.uint32(self.launch.cbanks.read_u32(op.cbank_id, op.offset)),
                dtype=np.uint32)
        else:
            raise ExecutionError(f"operand not usable as u32 source: {op}")
        if op.negated:
            vals = (np.uint32(0) - vals).astype(np.uint32)
        return vals

    # -- main loop -----------------------------------------------------------

    def run(self, limit: int) -> None:
        """Run until EXIT (all lanes) or a barrier.  ``limit`` caps the
        launch's total warp instructions (see :data:`WARP_INSTR_BUDGET`)."""
        if self.launch.decoded is not None:
            self._run_decoded(self.launch.decoded, limit)
            return
        warp = self.warp
        launch = self.launch
        stats = launch.stats
        ledgers = launch.ledgers
        call_cycles = launch.cost.injection_call_cycles
        before = launch.before
        after = launch.after
        shadow = launch.shadow
        slots = shadow_slots(self.code) if shadow is not None else None
        warp.at_barrier = False
        while not warp.done:
            pc = warp.pc
            if pc >= self.n:
                raise ExecutionError(
                    f"{self.code.name}: fell off the end of the kernel")
            instr = self.instrs[pc]
            if instr.guard is not None:
                guard_mask = warp.read_pred(instr.guard.pred_num,
                                            instr.guard.negated)
                exec_mask = warp.active & guard_mask
            else:
                exec_mask = warp.active.copy()

            stats.warp_instrs += 1
            if stats.warp_instrs > limit:
                raise _over_budget(self.code, limit)
            lanes = int(exec_mask.sum())
            stats.thread_instrs += lanes
            info = instr.info
            stats.base_cycles += info.cycles
            if info.fp_width:
                stats.fp_warp_instrs += 1
                stats.fp_thread_instrs += lanes
            if _PROFILE is not None:
                _PROFILE.add(self.code.name, pc, instr.opcode, info.cycles)

            injections = before.get(pc)
            if injections:
                for inj in injections:
                    ledger = ledgers[inj.observer]
                    ledger.stats.injected_calls += 1
                    ledger.stats.injected_cycles += call_cycles
                    inj.fn(InjectionCtx(launch, ledger, warp, instr,
                                        exec_mask, inj.args))

            if slots is not None and slots[pc] is not None:
                advanced = shadow.run_fn(
                    slots[pc], self, exec_mask,
                    lambda: self._execute(instr, exec_mask))
            else:
                advanced = self._execute(instr, exec_mask)

            injections = after.get(pc)
            if injections:
                for inj in injections:
                    ledger = ledgers[inj.observer]
                    ledger.stats.injected_calls += 1
                    ledger.stats.injected_cycles += call_cycles
                    inj.fn(InjectionCtx(launch, ledger, warp, instr,
                                        exec_mask, inj.args))

            if warp.at_barrier:
                return
            if not advanced:
                warp.pc = pc + 1

    def _run_decoded(self, prog: "DecodedProgram", limit: int) -> None:
        """The decoded fast path: identical observable behaviour to
        :meth:`run`, but every per-instruction resolution (dispatch,
        operand accessors, modifier folding, injection-dict probes) was
        done once at decode time.

        Further liberties over the legacy loop, all observation-
        preserving: counters accumulate in locals and flush on exit (all
        per-instruction cycle charges are integer-valued, so the batched
        float sums are exact); the unguarded exec mask aliases
        ``warp.active`` instead of copying it (no handler mutates the
        active buffer in place — divergence rebinds it); and the lane
        count is cached per ``warp.active`` object, so a converged warp
        hands every op the shared :data:`FULL_MASK` without counting."""
        warp = self.warp
        launch = self.launch
        stats = launch.stats
        ledgers = launch.ledgers
        shadow = launch.shadow
        count_nonzero = np.count_nonzero
        ops = prog.ops
        n = len(ops)
        warp.at_barrier = False
        warp_instrs = thread_instrs = fp_warps = fp_threads = 0
        calls = [0] * len(ledgers)  # injected calls per observer
        base_cycles = 0.0
        room = limit - stats.warp_instrs
        counted = None  # the warp.active object act_lanes was counted on
        act_lanes = WARP_SIZE
        act_mask = FULL_MASK
        try:
            while not warp.done:
                pc = warp.pc
                if pc >= n:
                    raise ExecutionError(
                        f"{self.code.name}: fell off the end of the kernel")
                dop = ops[pc]
                active = warp.active
                if active is not counted:
                    counted = active
                    act_lanes = int(count_nonzero(active))
                    act_mask = FULL_MASK if act_lanes == WARP_SIZE \
                        else active
                guard = dop.guard
                if guard is not None:
                    exec_mask = warp.read_pred(guard[0], guard[1])
                    if act_mask is not FULL_MASK:
                        exec_mask = active & exec_mask
                    lanes = int(count_nonzero(exec_mask))
                    if lanes == WARP_SIZE:
                        exec_mask = FULL_MASK
                else:
                    exec_mask = act_mask
                    lanes = act_lanes

                warp_instrs += 1
                if warp_instrs > room:
                    raise _over_budget(self.code, limit)
                thread_instrs += lanes
                base_cycles += dop.cycles
                if dop.is_fp:
                    fp_warps += 1
                    fp_threads += lanes
                if _PROFILE is not None:
                    _PROFILE.add(self.code.name, pc, dop.opcode, dop.cycles)

                for inj in dop.before:
                    calls[inj.observer] += 1
                    inj.fn(InjectionCtx(launch, ledgers[inj.observer], warp,
                                        dop.instr, exec_mask, inj.args))

                if shadow is not None and dop.shadow is not None:
                    advanced = shadow.run_op(dop, self, exec_mask)
                else:
                    advanced = dop.execute(self, exec_mask)

                for inj in dop.after:
                    calls[inj.observer] += 1
                    inj.fn(InjectionCtx(launch, ledgers[inj.observer], warp,
                                        dop.instr, exec_mask, inj.args))

                if warp.at_barrier:
                    return
                if not advanced:
                    warp.pc = pc + 1
        finally:
            stats.warp_instrs += warp_instrs
            stats.thread_instrs += thread_instrs
            stats.base_cycles += base_cycles
            stats.fp_warp_instrs += fp_warps
            stats.fp_thread_instrs += fp_threads
            _charge_calls(launch, calls)

    # -- instruction semantics ------------------------------------------------
    # Each handler returns True when it already set warp.pc (branches).

    def _execute(self, instr: Instruction, mask: np.ndarray) -> bool:
        op = instr.opcode
        handler = _DISPATCH.get(op)
        if handler is None:
            raise ExecutionError(
                f"{self.code.name}: no semantics for opcode {op} "
                f"at pc {instr.pc}: {instr.getSASS()}")
        return handler(self, instr, mask)

    # FP32 arithmetic -------------------------------------------------------

    def _fp32_binary(self, instr: Instruction, mask: np.ndarray,
                     fn) -> bool:
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        ftz = instr.has_modifier("FTZ")
        if ftz:
            a, b = _ftz32(a), _ftz32(b)
        with np.errstate(all="ignore"):
            d = fn(a, b).astype(np.float32)
        if ftz and "legacy-fp32-drop-ftz-flush" not in _MUTATIONS:
            d = _ftz32(d)
        self.warp.write_f32(instr.dest_reg(), d, mask)
        return False

    def _op_fadd(self, instr, mask):
        return self._fp32_binary(instr, mask, lambda a, b: a + b)

    def _op_fmul(self, instr, mask):
        return self._fp32_binary(instr, mask, lambda a, b: a * b)

    def _op_ffma(self, instr, mask):
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        c = self.src_f32(srcs[2])
        ftz = instr.has_modifier("FTZ")
        if ftz:
            a, b, c = _ftz32(a), _ftz32(b), _ftz32(c)
        d = _ffma32(a, b, c)
        if ftz:
            d = _ftz32(d)
        self.warp.write_f32(instr.dest_reg(), d, mask)
        return False

    def _op_mufu(self, instr, mask):
        func = next((m for m in instr.modifiers if m in
                     ("RCP", "RCP64H", "RSQ", "SQRT", "EX2", "LG2", "SIN",
                      "COS")), None)
        if func is None:
            raise ExecutionError(f"MUFU without function: {instr.getSASS()}")
        src = instr.source_operands()[0]
        dest = instr.dest_reg()
        if func == "RCP64H":
            if src.type is not OperandType.REG:
                raise ExecutionError("MUFU.RCP64H needs a register source")
            high = self.warp.read_u32(src.num)
            self.warp.write_u32(dest, mufu_rcp64h(high), mask)
            return False
        x = self.src_f32(src)
        if instr.has_modifier("FTZ"):
            x = _ftz32(x)
        d = mufu_f32(func, x)
        if instr.has_modifier("FTZ"):
            d = _ftz32(d)
        self.warp.write_f32(dest, d, mask)
        return False

    def _op_fchk(self, instr, mask):
        """FCHK.DIVIDE P, Ra, Rb: true when a/b needs the slow path."""
        pd = instr.dest_pred()
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        bits_b = b.view(np.uint32)
        exp_b = (bits_b & np.uint32(0x7F800000))
        # slow path when divisor is zero / subnormal / inf / nan, the
        # dividend is inf/nan, or exponents are extreme.
        bad_b = (exp_b == 0) | (exp_b == np.uint32(0x7F800000))
        bits_a = a.view(np.uint32)
        exp_a = bits_a & np.uint32(0x7F800000)
        bad_a = exp_a == np.uint32(0x7F800000)
        extreme = (exp_a >= np.uint32(0x7E000000)) | \
                  (exp_b >= np.uint32(0x7E000000))
        self.warp.write_pred(pd, bad_a | bad_b | extreme, mask)
        return False

    # FP64 arithmetic -------------------------------------------------------

    def _fp64_binary(self, instr, mask, fn) -> bool:
        srcs = instr.source_operands()
        a = self.src_f64(srcs[0])
        b = self.src_f64(srcs[1])
        with np.errstate(all="ignore"):
            d = fn(a, b)
        self.warp.write_f64_pair(instr.dest_reg(), d, mask)
        return False

    def _op_dadd(self, instr, mask):
        return self._fp64_binary(instr, mask, lambda a, b: a + b)

    def _op_dmul(self, instr, mask):
        return self._fp64_binary(instr, mask, lambda a, b: a * b)

    def _op_dfma(self, instr, mask):
        srcs = instr.source_operands()
        a = self.src_f64(srcs[0])
        b = self.src_f64(srcs[1])
        c = self.src_f64(srcs[2])
        d = _fma64(a, b, c)
        self.warp.write_f64_pair(instr.dest_reg(), d, mask)
        return False

    # FP16 extension ----------------------------------------------------------

    def _fp16_op(self, instr, mask, fn) -> bool:
        srcs = instr.source_operands()
        vals = []
        for s in srcs:
            u = self.src_u32(s)
            lo = (u & np.uint32(0xFFFF)).astype(np.uint16).view(np.float16)
            hi = (u >> np.uint32(16)).astype(np.uint16).view(np.float16)
            vals.append((lo, hi))
        with np.errstate(all="ignore"):
            lo = fn(*[v[0] for v in vals]).astype(np.float16)
            hi = fn(*[v[1] for v in vals]).astype(np.float16)
        packed = (lo.view(np.uint16).astype(np.uint32)
                  | (hi.view(np.uint16).astype(np.uint32) << np.uint32(16)))
        self.warp.write_u32(instr.dest_reg(), packed, mask)
        return False

    def _op_hadd2(self, instr, mask):
        return self._fp16_op(instr, mask, lambda a, b: a + b)

    def _op_hmul2(self, instr, mask):
        return self._fp16_op(instr, mask, lambda a, b: a * b)

    def _op_hfma2(self, instr, mask):
        return self._fp16_op(instr, mask, lambda a, b, c: a * b + c)

    # FP control flow (Table 1, right column) ----------------------------------

    def _op_fsel(self, instr, mask):
        """FSEL Rd, Ra, Rb, P: d = P ? a : b."""
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        p = srcs[2]
        if p.type is not OperandType.PRED:
            raise ExecutionError("FSEL needs a predicate source")
        sel = self.warp.read_pred(p.num, p.negated)
        self.warp.write_f32(instr.dest_reg(), np.where(sel, a, b), mask)
        return False

    def _op_fmnmx(self, instr, mask):
        """FMNMX Rd, Ra, Rb, P: d = P ? min(a,b) : max(a,b).

        NVIDIA follows IEEE 754-2008 here: when exactly one operand is a
        NaN, the *non-NaN* operand is returned — NaNs do not propagate
        (§1: "NVIDIA adheres to the 2008 IEEE standard which does not
        require NaN propagation").
        """
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        p = srcs[2]
        sel = self.warp.read_pred(p.num, p.negated)
        with np.errstate(all="ignore"):
            mn = np.fmin(a, b)  # fmin/fmax implement 2008-style NaN handling
            mx = np.fmax(a, b)
        self.warp.write_f32(instr.dest_reg(), np.where(sel, mn, mx), mask)
        return False

    def _fp_compare(self, a: np.ndarray, b: np.ndarray,
                    cmp: str) -> np.ndarray:
        return fp_compare(a, b, cmp)

    _CMP_MODS = _CMP_MODS

    def _op_fset(self, instr, mask):
        """FSET.BF.<cmp>.<bool> Rd, Ra, Rb, P: 1.0f/0.0f mask result."""
        cmp = next(m for m in instr.modifiers if m in self._CMP_MODS)
        boolop = "AND" if "AND" in instr.modifiers else (
            "OR" if "OR" in instr.modifiers else "AND")
        srcs = instr.source_operands()
        a = self.src_f32(srcs[0])
        b = self.src_f32(srcs[1])
        p = srcs[2]
        combine = self.warp.read_pred(p.num, p.negated)
        r = self._fp_compare(a, b, cmp)
        r = (r & combine) if boolop == "AND" else (r | combine)
        d = np.where(r, np.float32(1.0), np.float32(0.0))
        self.warp.write_f32(instr.dest_reg(), d, mask)
        return False

    def _setp_common(self, instr, mask, a, b):
        cmp = next(m for m in instr.modifiers if m in self._CMP_MODS)
        boolop = "OR" if "OR" in instr.modifiers else "AND"
        preds = [o for o in instr.operands if o.type is OperandType.PRED]
        if len(preds) < 3:
            raise ExecutionError(
                f"SETP needs Pdst, Pdst2, ..., Pcombine: {instr.getSASS()}")
        pdst, pdst2, pcomb = preds[0], preds[1], preds[-1]
        combine = self.warp.read_pred(pcomb.num, pcomb.negated)
        r = self._fp_compare(a, b, cmp)
        if boolop == "AND":
            self.warp.write_pred(pdst.num, r & combine, mask)
            self.warp.write_pred(pdst2.num, (~r) & combine, mask)
        else:
            self.warp.write_pred(pdst.num, r | combine, mask)
            self.warp.write_pred(pdst2.num, (~r) | combine, mask)
        return False

    def _fp_setp_sources(self, instr, width: int):
        srcs = [o for o in instr.source_operands()
                if o.type is not OperandType.PRED]
        read = self.src_f32 if width == 32 else self.src_f64
        return read(srcs[0]), read(srcs[1])

    def _op_fsetp(self, instr, mask):
        a, b = self._fp_setp_sources(instr, 32)
        return self._setp_common(instr, mask, a, b)

    def _op_dsetp(self, instr, mask):
        a, b = self._fp_setp_sources(instr, 64)
        return self._setp_common(instr, mask, a, b)

    # conversions ---------------------------------------------------------------

    def _op_f2f(self, instr, mask):
        mods = [m for m in instr.modifiers if m in ("F16", "F32", "F64")]
        if len(mods) != 2:
            raise ExecutionError(f"F2F needs dst.src widths: {instr.getSASS()}")
        dst_w, src_w = mods
        src = instr.source_operands()[0]
        if src_w == "F64":
            x = self.src_f64(src)
        elif src_w == "F32":
            x = self.src_f32(src)
        else:
            u = self.src_u32(src)
            x = (u & np.uint32(0xFFFF)).astype(np.uint16).view(np.float16)
        dest = instr.dest_reg()
        with np.errstate(all="ignore"):
            if dst_w == "F64":
                self.warp.write_f64_pair(dest, x.astype(np.float64), mask)
            elif dst_w == "F32":
                self.warp.write_f32(dest, x.astype(np.float32), mask)
            else:
                h = x.astype(np.float16).view(np.uint16).astype(np.uint32)
                self.warp.write_u32(dest, h, mask)
        return False

    def _op_i2f(self, instr, mask):
        src = self.src_u32(instr.source_operands()[0])
        signed = src.view(np.int32)
        if "F64" in instr.modifiers:
            self.warp.write_f64_pair(instr.dest_reg(),
                                     signed.astype(np.float64), mask)
        else:
            self.warp.write_f32(instr.dest_reg(),
                                signed.astype(np.float32), mask)
        return False

    def _op_f2i(self, instr, mask):
        src = instr.source_operands()[0]
        x = self.src_f64(src) if "F64" in instr.modifiers else \
            self.src_f32(src)
        with np.errstate(all="ignore"):
            x64 = np.nan_to_num(x.astype(np.float64), nan=0.0,
                                posinf=2**31 - 1, neginf=-(2**31))
            vals = np.clip(np.trunc(x64), -(2**31), 2**31 - 1).astype(np.int64)
        self.warp.write_u32(instr.dest_reg(),
                            vals.astype(np.int32).view(np.uint32), mask)
        return False

    # integer scaffolding ---------------------------------------------------------

    def _op_mov(self, instr, mask):
        src = instr.source_operands()[0]
        self.warp.write_u32(instr.dest_reg(), self.src_u32(src), mask)
        return False

    def _op_iadd3(self, instr, mask):
        srcs = instr.source_operands()
        total = np.zeros(WARP_SIZE, dtype=np.uint64)
        for s in srcs:
            total += self.src_u32(s)
        self.warp.write_u32(instr.dest_reg(),
                            (total & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                            mask)
        return False

    def _op_imad(self, instr, mask):
        srcs = instr.source_operands()
        a = self.src_u32(srcs[0]).astype(np.uint64)
        b = self.src_u32(srcs[1]).astype(np.uint64)
        c = self.src_u32(srcs[2]).astype(np.uint64) if len(srcs) > 2 else \
            np.zeros(WARP_SIZE, dtype=np.uint64)
        prod = a * b + c
        dest = instr.dest_reg()
        if "WIDE" in instr.modifiers:
            self.warp.write_u32(dest,
                                (prod & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                                mask)
            self.warp.write_u32(dest + 1,
                                (prod >> np.uint64(32)).astype(np.uint32), mask)
        else:
            self.warp.write_u32(dest,
                                (prod & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                                mask)
        return False

    def _op_isetp(self, instr, mask):
        srcs = [o for o in instr.source_operands()
                if o.type is not OperandType.PRED]
        a = self.src_u32(srcs[0])
        b = self.src_u32(srcs[1])
        if "U32" not in instr.modifiers:
            a = a.view(np.int32)
            b = b.view(np.int32)
        return self._setp_common(instr, mask, a, b)

    def _op_lop3(self, instr, mask):
        srcs = instr.source_operands()
        a = self.src_u32(srcs[0])
        b = self.src_u32(srcs[1])
        c = self.src_u32(srcs[2])
        lut = srcs[3].ivalue if len(srcs) > 3 else 0xC0  # default a&b
        out = np.zeros(WARP_SIZE, dtype=np.uint32)
        for minterm in range(8):
            if not (lut >> minterm) & 1:
                continue
            am = a if (minterm & 4) else ~a
            bm = b if (minterm & 2) else ~b
            cm = c if (minterm & 1) else ~c
            out |= am & bm & cm
        self.warp.write_u32(instr.dest_reg(), out, mask)
        return False

    def _op_shf(self, instr, mask):
        srcs = instr.source_operands()
        a = self.src_u32(srcs[0])
        s = self.src_u32(srcs[1]) & np.uint32(31)
        if "R" in instr.modifiers:
            out = a >> s
        else:
            out = a << s
        self.warp.write_u32(instr.dest_reg(), out.astype(np.uint32), mask)
        return False

    def _op_sel(self, instr, mask):
        """SEL Rd, Ra, Rb, P: bitwise select — d = P ? a : b."""
        srcs = instr.source_operands()
        a = self.src_u32(srcs[0])
        b = self.src_u32(srcs[1])
        p = srcs[2]
        if p.type is not OperandType.PRED:
            raise ExecutionError("SEL needs a predicate source")
        sel = self.warp.read_pred(p.num, p.negated)
        self.warp.write_u32(instr.dest_reg(), np.where(sel, a, b), mask)
        return False

    def _op_s2r(self, instr, mask):
        src = instr.source_operands()[0]
        name = src.text.upper()
        warp = self.warp
        lanes = np.arange(WARP_SIZE, dtype=np.uint32)
        if name in ("SR_TID.X", "SR_TID"):
            block_threads = warp.first_thread - warp.block_id * \
                self.launch.block_dim
            vals = np.uint32(block_threads) + lanes
        elif name in ("SR_CTAID.X", "SR_CTAID"):
            vals = np.full(WARP_SIZE, np.uint32(warp.block_id),
                           dtype=np.uint32)
        elif name == "SR_LANEID":
            vals = lanes
        elif name == "SR_NTID.X":
            vals = np.full(WARP_SIZE, np.uint32(self.launch.block_dim),
                           dtype=np.uint32)
        elif name == "SR_GRIDDIM.X":
            vals = np.full(WARP_SIZE, np.uint32(self.launch.grid_dim),
                           dtype=np.uint32)
        else:
            raise ExecutionError(f"unknown special register {name!r}")
        warp.write_u32(instr.dest_reg(), vals, mask)
        return False

    # memory -------------------------------------------------------------------

    def _mref_addrs(self, op: Operand) -> np.ndarray:
        base = self.warp.read_u32(op.num).astype(np.uint32)
        return base + np.uint32(op.offset & 0xFFFFFFFF)

    def _op_ldg(self, instr, mask):
        m = next(o for o in instr.operands if o.type is OperandType.MREF)
        addrs = self._mref_addrs(m)
        dest = instr.dest_reg()
        gm = self.launch.global_mem
        if "64" in instr.modifiers:
            low, high = gm.load_u64(addrs, mask)
            self.warp.write_u32(dest, low, mask)
            self.warp.write_u32(dest + 1, high, mask)
        else:
            self.warp.write_u32(dest, gm.load_u32(addrs, mask), mask)
        return False

    def _op_stg(self, instr, mask):
        m = next(o for o in instr.operands if o.type is OperandType.MREF)
        src = next(o for o in instr.operands if o.type is OperandType.REG)
        addrs = self._mref_addrs(m)
        gm = self.launch.global_mem
        if "64" in instr.modifiers:
            gm.store_u64(addrs, self.warp.read_u32(src.num),
                         self.warp.read_u32(src.num + 1), mask)
        else:
            gm.store_u32(addrs, self.warp.read_u32(src.num), mask)
        return False

    def _op_ldc(self, instr, mask):
        src = next(o for o in instr.operands if o.type is OperandType.CBANK)
        dest = instr.dest_reg()
        if "64" in instr.modifiers:
            bits = self.launch.cbanks.read_u64(src.cbank_id, src.offset)
            self.warp.write_u32(dest, np.full(WARP_SIZE,
                                              np.uint32(bits & 0xFFFFFFFF)),
                                mask)
            self.warp.write_u32(dest + 1,
                                np.full(WARP_SIZE, np.uint32(bits >> 32)),
                                mask)
        else:
            bits = self.launch.cbanks.read_u32(src.cbank_id, src.offset)
            self.warp.write_u32(dest,
                                np.full(WARP_SIZE, np.uint32(bits)), mask)
        return False

    def _op_lds(self, instr, mask):
        if self.launch.shared is None:
            raise ExecutionError("LDS without shared memory")
        m = next(o for o in instr.operands if o.type is OperandType.MREF)
        addrs = self._mref_addrs(m)
        self.warp.write_u32(instr.dest_reg(),
                            self.launch.shared.load_u32(addrs, mask), mask)
        return False

    def _op_sts(self, instr, mask):
        if self.launch.shared is None:
            raise ExecutionError("STS without shared memory")
        m = next(o for o in instr.operands if o.type is OperandType.MREF)
        src = next(o for o in instr.operands if o.type is OperandType.REG)
        addrs = self._mref_addrs(m)
        self.launch.shared.store_u32(addrs, self.warp.read_u32(src.num), mask)
        return False

    # branches / structure -------------------------------------------------------

    def _op_bra(self, instr, mask):
        warp = self.warp
        target = self.code.target_pc(instr.pc)
        taken = mask
        not_taken = warp.active & ~taken
        if not taken.any():
            return False  # falls through
        if not not_taken.any():
            warp.pc = target
            return True
        # divergent branch: stash the taken path, continue fall-through
        get_telemetry().count(CTR_DIVERGENT_BRANCHES)
        warp.push_div(target, taken)
        warp.active = not_taken
        return False

    def _op_ssy(self, instr, mask):
        self.warp.push_ssy(self.code.target_pc(instr.pc))
        return False

    def _op_sync(self, instr, mask):
        self.warp.pop_to_pending()
        return True

    def _op_bar(self, instr, mask):
        self.warp.at_barrier = True
        self.warp.pc = instr.pc + 1
        return True

    def _op_exit(self, instr, mask):
        warp = self.warp
        remaining = warp.active & ~mask
        warp.exited |= mask
        warp.active = remaining
        if remaining.any():
            # guarded EXIT: surviving lanes fall through
            return False
        warp.pop_to_pending()  # switch to a pending path or finish
        return True

    def _op_nop(self, instr, mask):
        return False


_DISPATCH: dict[str, Callable] = {
    "FADD": _WarpRunner._op_fadd, "FADD32I": _WarpRunner._op_fadd,
    "FMUL": _WarpRunner._op_fmul, "FMUL32I": _WarpRunner._op_fmul,
    "FFMA": _WarpRunner._op_ffma, "FFMA32I": _WarpRunner._op_ffma,
    "MUFU": _WarpRunner._op_mufu, "FCHK": _WarpRunner._op_fchk,
    "DADD": _WarpRunner._op_dadd, "DMUL": _WarpRunner._op_dmul,
    "DFMA": _WarpRunner._op_dfma,
    "HADD2": _WarpRunner._op_hadd2, "HMUL2": _WarpRunner._op_hmul2,
    "HFMA2": _WarpRunner._op_hfma2,
    "FSEL": _WarpRunner._op_fsel, "FMNMX": _WarpRunner._op_fmnmx,
    "FSET": _WarpRunner._op_fset, "FSETP": _WarpRunner._op_fsetp,
    "DSETP": _WarpRunner._op_dsetp,
    "F2F": _WarpRunner._op_f2f, "I2F": _WarpRunner._op_i2f,
    "F2I": _WarpRunner._op_f2i,
    "MOV": _WarpRunner._op_mov, "MOV32I": _WarpRunner._op_mov,
    "IADD3": _WarpRunner._op_iadd3, "IMAD": _WarpRunner._op_imad,
    "ISETP": _WarpRunner._op_isetp, "LOP3": _WarpRunner._op_lop3,
    "SHF": _WarpRunner._op_shf, "S2R": _WarpRunner._op_s2r,
    "SEL": _WarpRunner._op_sel,
    "LDG": _WarpRunner._op_ldg, "STG": _WarpRunner._op_stg,
    "LDC": _WarpRunner._op_ldc, "LDS": _WarpRunner._op_lds,
    "STS": _WarpRunner._op_sts,
    "BRA": _WarpRunner._op_bra, "SSY": _WarpRunner._op_ssy,
    "SYNC": _WarpRunner._op_sync, "BAR": _WarpRunner._op_bar,
    "EXIT": _WarpRunner._op_exit, "NOP": _WarpRunner._op_nop,
}


class _CohortRunner:
    """Shim handed to vectorizable execute closures: the same attribute
    surface as :class:`_WarpRunner` (``warp``, ``launch``), with ``warp``
    bound to the cohort's stacked register view."""

    __slots__ = ("launch", "warp")

    def __init__(self, launch: LaunchContext) -> None:
        self.launch = launch
        self.warp: CohortView | None = None


class _Convergence:
    """Which warps of a stacked launch have every lane active.

    The lane count is cached per ``warp.active`` object: ``active`` is
    only ever rebound, and only by the warp-at-a-time control-flow ops,
    so the engines call :meth:`refresh` after each of those and a
    vectorizable step tests its cohort against the (usually empty)
    ``partial`` set instead of stacking and counting 32-lane masks.
    """

    __slots__ = ("warps", "counted", "partial")

    def __init__(self, warps: list[Warp]) -> None:
        self.warps = warps
        self.counted: list = [None] * len(warps)
        #: Runnable warps with at least one inactive lane.
        self.partial: set[int] = set()
        for i in range(len(warps)):
            self.refresh(i)

    def refresh(self, i: int) -> None:
        wp = self.warps[i]
        active = wp.active
        if active is self.counted[i]:
            return
        self.counted[i] = active
        if wp.done or np.count_nonzero(active) == WARP_SIZE:
            self.partial.discard(i)
        else:
            self.partial.add(i)

    def cohort_masks(self, view: CohortView, rows: list[int],
                     guard) -> tuple[np.ndarray, int]:
        """``(masks, lanes)`` of a vectorizable step over cohort
        ``rows``: the view's shared ``full_mask`` when every lane of
        every row executes, else the stacked active masks under the
        guard."""
        partial = self.partial
        if partial and not partial.isdisjoint(rows):
            masks = np.stack([self.warps[i].active for i in rows])
            if guard is not None:
                masks &= view.read_pred(guard[0], guard[1])
            return masks, int(np.count_nonzero(masks))
        full = view.full_mask
        if guard is None:
            return full, full.size
        masks = view.read_pred(guard[0], guard[1])
        lanes = int(np.count_nonzero(masks))
        return (full if lanes == full.size else masks), lanes

    def warp_mask(self, i: int, guard) -> tuple[np.ndarray, int]:
        """``(mask, lanes)`` of warp ``i`` executing one op alone."""
        wp = self.warps[i]
        full = i not in self.partial
        if guard is None:
            if full:
                return FULL_MASK, WARP_SIZE
            return wp.active, int(np.count_nonzero(wp.active))
        mask = wp.read_pred(guard[0], guard[1])
        if not full:
            mask = wp.active & mask
        lanes = int(np.count_nonzero(mask))
        return (FULL_MASK if lanes == WARP_SIZE else mask), lanes


@np.errstate(all="ignore")
def execute_launch(launch: LaunchContext) -> LaunchStats:
    """Execute every block of a launch; returns the launch's stats."""
    stats = launch.stats
    stats.kernel_name = launch.code.name
    stats.static_instrs = len(launch.code)
    if _PROFILE is not None:
        _PROFILE.register_code(launch.code)
    threads_per_block = launch.block_dim
    warps_per_block = (threads_per_block + WARP_SIZE - 1) // WARP_SIZE
    limit = WARP_INSTR_BUDGET * launch.grid_dim * warps_per_block
    if (launch.warp_batch and launch.decoded is not None
            and launch.grid_dim * warps_per_block > 1
            and launch.decoded.cohort_ready):
        return _execute_launch_batched(launch, warps_per_block, limit)
    for block in range(launch.grid_dim):
        launch.shared = SharedMemory()
        warps = []
        for w in range(warps_per_block):
            first_thread = block * threads_per_block + w * WARP_SIZE
            active = min(WARP_SIZE, threads_per_block - w * WARP_SIZE)
            warps.append(Warp(w, block, first_thread, active))
        runners = [_WarpRunner(launch, wp) for wp in warps]
        # round-robin across barriers
        progress = True
        while progress:
            progress = False
            for runner in runners:
                if runner.warp.done:
                    continue
                runner.run(limit)
                progress = True
            if all(w.done for w in warps):
                break
            if all(w.done or w.at_barrier for w in warps):
                for w in warps:
                    w.at_barrier = False
    return stats


def _execute_launch_batched(launch: LaunchContext, warps_per_block: int,
                            limit: int) -> LaunchStats:
    """The warp-cohort batched engine.

    All warps of the launch (across blocks) are scheduled by program
    counter: the cohort of runnable warps sharing the lowest pc executes
    its micro-op as *one* NumPy operation over the stacked
    ``(n_warps, 32)`` register view — one dispatch, one operand gather,
    one injection probe per cohort.  Non-vectorizable ops (control flow,
    S2R, shared memory) run warp-at-a-time in ascending warp order.
    A cohort whose warps are all converged gets the set's shared
    all-lanes mask (see :class:`_Convergence`).

    Observable behaviour is bit-identical to the serial engine:

    - register/memory evolution matches because each warp's own
      trajectory is executed by the same closures in program order, and
      barriers partition cross-warp shared/global traffic exactly as the
      serial round-robin does;
    - all cycle charges are integer-valued floats, so batched sums are
      exact in any accumulation order (the same liberty the decoded
      serial loop takes);
    - channel records and GT updates are *deferred*: cohort probes read
      registers immediately (vectorised) but queue their emissions in
      their observer's ledger, sorted at launch end by (block, barrier
      phase, warp, program order) — the serial engine's emission order.
    """
    stats = launch.stats
    code = launch.code
    ops = launch.decoded.ops
    n_ops = len(ops)
    tpb = launch.block_dim
    n_warps = launch.grid_dim * warps_per_block
    wset = WarpSet(n_warps)
    warps: list[Warp] = []
    blocks: list[list[int]] = []
    gi = 0
    for block in range(launch.grid_dim):
        shared = SharedMemory()
        members = []
        for w in range(warps_per_block):
            first_thread = block * tpb + w * WARP_SIZE
            active = min(WARP_SIZE, tpb - w * WARP_SIZE)
            regs, preds = wset.plane(gi)
            wp = Warp(w, block, first_thread, active, regs=regs, preds=preds)
            wp.shared = shared
            warps.append(wp)
            members.append(gi)
            gi += 1
        blocks.append(members)
    runners = [_WarpRunner(launch, wp) for wp in warps]
    conv = _Convergence(warps)
    shim = _CohortRunner(launch)
    shadow = launch.shadow
    if shadow is not None:
        shadow.attach(wset, warps)
    #: Barrier phase per warp — the replay sort key's second component
    #: (the serial engine finishes every warp's phase k before phase
    #: k+1 of any warp in the block).
    phase = [0] * n_warps
    ledgers = launch.ledgers
    seq = 0
    warp_instrs = thread_instrs = fp_warps = fp_threads = 0
    calls = [0] * len(ledgers)  # injected calls per observer
    base_cycles = 0.0
    try:
        while True:
            runnable = [i for i, wp in enumerate(warps)
                        if not wp.done and not wp.at_barrier]
            if not runnable:
                released = False
                for members in blocks:
                    live = [i for i in members if not warps[i].done]
                    if live and all(warps[i].at_barrier for i in live):
                        for i in live:
                            warps[i].at_barrier = False
                            phase[i] += 1
                        released = True
                if not released:
                    break
                continue
            pc = min(warps[i].pc for i in runnable)
            if pc >= n_ops:
                raise ExecutionError(
                    f"{code.name}: fell off the end of the kernel")
            cohort = [i for i in runnable if warps[i].pc == pc]
            dop = ops[pc]
            if dop.vectorizable:
                n = len(cohort)
                idx = np.asarray(cohort, dtype=np.intp)
                view = CohortView(wset, idx)
                masks, lanes = conv.cohort_masks(view, cohort, dop.guard)
                warp_instrs += n
                if warp_instrs > limit:
                    raise _over_budget(code, limit)
                thread_instrs += lanes
                base_cycles += dop.cycles * n
                if dop.is_fp:
                    fp_warps += n
                    fp_threads += lanes
                if _PROFILE is not None:
                    _PROFILE.add(code.name, pc, dop.opcode,
                                 dop.cycles * n, n=n)
                if dop.before or dop.after:
                    def _defer(ledger, row, fn, args=(), _cohort=cohort,
                               _masks=masks, _instr=dop.instr):
                        nonlocal seq
                        i = _cohort[row]
                        wp = warps[i]
                        ledger.emissions.append((
                            wp.block_id, phase[i], wp.warp_id, seq, launch,
                            fn, wp, _instr, _masks[row], args))
                        seq += 1
                    for inj in dop.before:
                        calls[inj.observer] += n
                        inj.cohort_fn(CohortInjectionCtx(
                            launch, ledgers[inj.observer], view, dop.instr,
                            masks, inj.args, _defer))
                    shim.warp = view
                    if shadow is not None and dop.shadow is not None:
                        shadow.run_cohort(dop, shim, masks, idx)
                    else:
                        dop.execute(shim, masks)
                    for inj in dop.after:
                        calls[inj.observer] += n
                        inj.cohort_fn(CohortInjectionCtx(
                            launch, ledgers[inj.observer], view, dop.instr,
                            masks, inj.args, _defer))
                else:
                    shim.warp = view
                    if shadow is not None and dop.shadow is not None:
                        shadow.run_cohort(dop, shim, masks, idx)
                    else:
                        dop.execute(shim, masks)
                next_pc = pc + 1
                for i in cohort:
                    warps[i].pc = next_pc
            else:
                # Warp-at-a-time fallback, in ascending warp order.  A
                # cohort-ready program never carries injections on these
                # ops, so there is nothing to probe or defer here.
                for i in cohort:
                    wp = warps[i]
                    launch.shared = wp.shared
                    mask, lanes = conv.warp_mask(i, dop.guard)
                    warp_instrs += 1
                    if warp_instrs > limit:
                        raise _over_budget(code, limit)
                    thread_instrs += lanes
                    base_cycles += dop.cycles
                    if dop.is_fp:
                        fp_warps += 1
                        fp_threads += lanes
                    if _PROFILE is not None:
                        _PROFILE.add(code.name, pc, dop.opcode, dop.cycles)
                    if shadow is not None and dop.shadow is not None:
                        advanced = shadow.run_op(dop, runners[i], mask)
                    else:
                        advanced = dop.execute(runners[i], mask)
                    conv.refresh(i)
                    if wp.at_barrier:
                        continue
                    if not advanced:
                        wp.pc = pc + 1
    finally:
        launch.shared = None
        stats.warp_instrs += warp_instrs
        stats.thread_instrs += thread_instrs
        stats.base_cycles += base_cycles
        stats.fp_warp_instrs += fp_warps
        stats.fp_thread_instrs += fp_threads
        _charge_calls(launch, calls)
    _sort_emissions(ledgers)
    return stats


@np.errstate(all="ignore")
def execute_megabatch(member_ctxs: "list[LaunchContext]",
                      mega) -> "list[LaunchStats]":
    """The launch-batched megabatch engine.

    Stacks N *member launches* of the same decoded program — identical
    code, geometry and injection plan, differing only in params / input
    memory — into one ``(N x n_blocks x n_warps, 32)`` register plane
    and schedules the whole stack by pc exactly like
    :func:`_execute_launch_batched`: one :class:`DecodedOp` dispatch and
    one cohort injection probe per pc cohort across *all* members.

    ``member_ctxs[m]`` is member ``m``'s own :class:`LaunchContext`
    (its cbanks, stats and — when instrumented — the one observer's
    ledger at index 0); ``mega`` is the shared
    :class:`~repro.gpu.memory.MegaGlobalMemory` whose partition ``m``
    backs member ``m``.  Observable behaviour is bit-identical to N
    serial launches:

    - constant banks are launch-scalar, so ops with a ``c[bank][off]``
      operand (``uses_cbank``) execute as per-member sub-cohorts bound
      to that member's banks; everything else runs as one cross-member
      dispatch (LDG/STG route through ``mega`` with per-row partition
      offsets);
    - cross-member control divergence needs no fallback: diverged
      members simply form separate pc cohorts;
    - per-member cycle/instruction accounting is exact: each step only
      bumps per-warp counters (dispatches per pc, idle lanes), which
      reduce to member totals once, at launch end — all charges are
      integer-valued, so the split is exact; injected probes charge
      via :meth:`CohortInjectionCtx.charge_per_warp`;
    - deferred emissions land in the emitting row's member ledger,
      each sorted at batch end into the serial engine's canonical
      order, so the runtime can replay them member by member with that
      member's host-side tool state bound.
    """
    template = member_ctxs[0]
    code = template.code
    decoded = template.decoded
    ops = decoded.ops
    n_ops = len(ops)
    n_members = len(member_ctxs)
    cost = template.cost
    tpb = template.block_dim
    grid = template.grid_dim
    warps_per_block = (tpb + WARP_SIZE - 1) // WARP_SIZE
    n_warps = n_members * grid * warps_per_block
    limit = WARP_INSTR_BUDGET * n_warps
    wset = WarpSet(n_warps, members=n_members)
    mof = wset.member_of
    if _PROFILE is not None:
        _PROFILE.register_code(code)
    warps: list[Warp] = []
    #: Barrier groups, one per (member, block) — BAR.SYNC never crosses
    #: a member boundary.
    groups: list[list[int]] = []
    gi = 0
    for m, ctx in enumerate(member_ctxs):
        ctx.stats.kernel_name = code.name
        ctx.stats.static_instrs = len(code)
        for block in range(grid):
            shared = SharedMemory()
            members = []
            for w in range(warps_per_block):
                first_thread = block * tpb + w * WARP_SIZE
                active = min(WARP_SIZE, tpb - w * WARP_SIZE)
                regs, preds = wset.plane(gi)
                wp = Warp(w, block, first_thread, active,
                          regs=regs, preds=preds)
                wp.shared = shared
                wp.member = m
                warps.append(wp)
                members.append(gi)
                gi += 1
            groups.append(members)
    runners = [_WarpRunner(member_ctxs[wp.member], wp) for wp in warps]
    conv = _Convergence(warps)
    #: Scratch context for cross-member dispatches: decoded closures see
    #: the mega memory (partition-offset routed); any stray flat
    #: ``charge()`` lands on a scratch ledger rather than one member's.
    batch = LaunchContext(
        code=code, global_mem=mega, cbanks=template.cbanks,
        stats=LaunchStats(), cost=cost, grid_dim=grid, block_dim=tpb,
        ledgers=[Ledger(LaunchStats()) for _ in template.ledgers],
        decoded=decoded)
    shim = _CohortRunner(batch)
    shadow = template.shadow
    if shadow is not None:
        shadow.attach(wset, warps)
    member_ledgers = [ctx.ledgers[0] if ctx.ledgers else None
                      for ctx in member_ctxs]
    member_base = np.array([mega.member_offset(m) for m in range(n_members)],
                           dtype=np.uint32)
    phase = [0] * n_warps
    seq = 0
    call_cycles = cost.injection_call_cycles
    executed = 0
    #: Per-warp accounting: dispatches per pc, and lanes left idle by
    #: partial masks (all and FP ops).  Reduced per member at the end.
    hits = np.zeros((n_warps, n_ops), dtype=np.int64)
    idle = np.zeros(n_warps, dtype=np.int64)
    fp_idle = np.zeros(n_warps, dtype=np.int64)
    try:
        while True:
            runnable = [i for i, wp in enumerate(warps)
                        if not wp.done and not wp.at_barrier]
            if not runnable:
                released = False
                for members in groups:
                    live = [i for i in members if not warps[i].done]
                    if live and all(warps[i].at_barrier for i in live):
                        for i in live:
                            warps[i].at_barrier = False
                            phase[i] += 1
                        released = True
                if not released:
                    break
                continue
            pc = min(warps[i].pc for i in runnable)
            if pc >= n_ops:
                raise ExecutionError(
                    f"{code.name}: fell off the end of the kernel")
            cohort = [i for i in runnable if warps[i].pc == pc]
            dop = ops[pc]
            if dop.vectorizable:
                if dop.uses_cbank:
                    # Constant banks differ per member: split the cohort
                    # into per-member runs (contiguous — warps are laid
                    # out member-major) bound to each member's banks.
                    segments = []
                    s = 0
                    for k in range(1, len(cohort) + 1):
                        if (k == len(cohort)
                                or warps[cohort[k]].member
                                != warps[cohort[s]].member):
                            ectx = member_ctxs[warps[cohort[s]].member]
                            segments.append((ectx, cohort[s:k]))
                            s = k
                else:
                    segments = [(batch, cohort)]
                for ectx, seg in segments:
                    idx = np.asarray(seg, dtype=np.intp)
                    view = CohortView(wset, idx)
                    n = len(seg)
                    masks, lanes = conv.cohort_masks(view, seg, dop.guard)
                    executed += n
                    if executed > limit:
                        raise _over_budget(code, limit)
                    hits[view.sel, pc] += 1
                    if lanes != n * WARP_SIZE:
                        short = WARP_SIZE - masks.sum(axis=1)
                        idle[view.sel] += short
                        if dop.is_fp:
                            fp_idle[view.sel] += short
                    if _PROFILE is not None:
                        _PROFILE.add(code.name, pc, dop.opcode,
                                     dop.cycles * n, n=n)
                    if dop.uses_global:
                        mega.row_offsets = member_base[mof[idx]][:, None]
                    shim.launch = ectx
                    if dop.before or dop.after:
                        row_stats = tuple(member_ledgers[m].stats
                                          for m in mof[idx])

                        def _defer(ledger, row, fn, args=(), _seg=seg,
                                   _masks=masks, _instr=dop.instr):
                            # The row's member ledger, not the scratch
                            # one the cohort context charges.
                            nonlocal seq
                            i = _seg[row]
                            wp = warps[i]
                            member_ledgers[wp.member].emissions.append((
                                wp.block_id, phase[i], wp.warp_id, seq,
                                member_ctxs[wp.member], fn, wp, _instr,
                                _masks[row], args))
                            seq += 1
                        for inj in dop.before:
                            inj.cohort_fn(CohortInjectionCtx(
                                ectx, ectx.ledgers[inj.observer], view,
                                dop.instr, masks, inj.args, _defer,
                                row_stats))
                        shim.warp = view
                        if shadow is not None and dop.shadow is not None:
                            shadow.run_cohort(dop, shim, masks, idx)
                        else:
                            dop.execute(shim, masks)
                        for inj in dop.after:
                            inj.cohort_fn(CohortInjectionCtx(
                                ectx, ectx.ledgers[inj.observer], view,
                                dop.instr, masks, inj.args, _defer,
                                row_stats))
                    else:
                        shim.warp = view
                        if shadow is not None and dop.shadow is not None:
                            shadow.run_cohort(dop, shim, masks, idx)
                        else:
                            dop.execute(shim, masks)
                next_pc = pc + 1
                for i in cohort:
                    warps[i].pc = next_pc
            else:
                # Warp-at-a-time fallback, ascending (member-major) warp
                # order, each warp bound to its member's context.  A
                # cohort-ready program never carries injections here.
                for i in cohort:
                    wp = warps[i]
                    ctx = member_ctxs[wp.member]
                    ctx.shared = wp.shared
                    mask, lanes = conv.warp_mask(i, dop.guard)
                    executed += 1
                    if executed > limit:
                        raise _over_budget(code, limit)
                    hits[i, pc] += 1
                    if lanes != WARP_SIZE:
                        idle[i] += WARP_SIZE - lanes
                        if dop.is_fp:
                            fp_idle[i] += WARP_SIZE - lanes
                    if _PROFILE is not None:
                        _PROFILE.add(code.name, pc, dop.opcode, dop.cycles)
                    if shadow is not None and dop.shadow is not None:
                        advanced = shadow.run_op(dop, runners[i], mask)
                    else:
                        advanced = dop.execute(runners[i], mask)
                    conv.refresh(i)
                    if wp.at_barrier:
                        continue
                    if not advanced:
                        wp.pc = pc + 1
    finally:
        # One reduction per launch: per-warp dispatch counts summed over
        # each member's (contiguous) warps, weighted per pc.
        per_member = hits.reshape(n_members, -1, n_ops).sum(axis=1)
        warp_m = per_member.sum(axis=1)
        fp_m = per_member @ np.array([op.is_fp for op in ops],
                                     dtype=np.int64)
        base_m = per_member @ np.array([op.cycles for op in ops],
                                       dtype=np.float64)
        calls_m = per_member @ np.array(
            [len(op.before) + len(op.after) for op in ops], dtype=np.int64)
        idle_m = idle.reshape(n_members, -1).sum(axis=1)
        fp_idle_m = fp_idle.reshape(n_members, -1).sum(axis=1)
        for m, ctx in enumerate(member_ctxs):
            ctx.shared = None
            st = ctx.stats
            st.warp_instrs += int(warp_m[m])
            st.thread_instrs += int(warp_m[m]) * WARP_SIZE - int(idle_m[m])
            st.base_cycles += float(base_m[m])
            st.fp_warp_instrs += int(fp_m[m])
            st.fp_thread_instrs += int(fp_m[m]) * WARP_SIZE \
                - int(fp_idle_m[m])
            calls = int(calls_m[m])
            if calls:
                ledger = member_ledgers[m]
                ledger.stats.injected_calls += calls
                ledger.stats.injected_cycles += calls * call_cycles
    _sort_emissions(member_ledgers)
    return [ctx.stats for ctx in member_ctxs]
