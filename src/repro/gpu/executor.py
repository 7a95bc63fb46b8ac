"""The SIMT execution engines.

Executes one kernel launch of a decoded micro-op program
(:mod:`repro.gpu.decode`, which holds the per-op semantics and their
numerical notes) in one of three ways: the serial engine runs every
block warp by warp (round-robin across BAR.SYNC barriers), the
warp-cohort engine runs every warp of the launch stacked by pc, and the
megabatch engine stacks several member launches the same way.  Each op
is NumPy-vectorised over its 32 lanes (or its cohort's rows).
Instrumentation hooks — the analogue of NVBit's injected device
functions — are fused into the decoded ops, run before/after chosen
instructions and receive an :class:`InjectionCtx` exposing the warp, the
execution mask, and charge / channel-push facilities.

Floating-point error reporting is off for a whole launch:
:func:`execute_launch` and :func:`execute_megabatch` run under one
``np.errstate(all="ignore")``, so the per-op semantics never pay for
entering it.

Execution is bounded: a launch may run at most
:data:`WARP_INSTR_BUDGET` warp instructions per warp, checked once per
loop step in every engine, so a kernel that never exits raises
:class:`ExecutionError` instead of hanging its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from ..sass import fpenc
from ..sass.instruction import Instruction
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import CTR_CHANNEL_BYTES
from .cost import CostModel, LaunchStats
from .memory import ConstBanks, GlobalMemory, SharedMemory
from .warp import FULL_MASK, WARP_SIZE, CohortView, Warp, WarpSet

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .decode import DecodedProgram

__all__ = ["Injection", "InjectionCtx", "CohortInjectionCtx", "Ledger",
           "LaunchContext", "execute_launch", "execute_megabatch",
           "replay", "ExecutionError", "WARP_INSTR_BUDGET"]


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
    charges and pushes land in its stats and channel.  One context
    serves every emission, rebound to each in turn."""
    ctx = InjectionCtx(None, ledger, None, None, None)
    for ctx.launch, fn, ctx.warp, ctx.instr, ctx.exec_mask, ctx.args \
            in emissions:
        fn(ctx)


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
    #: The decoded micro-op program the launch runs, every observer's
    #: injections fused into its per-op slots.
    decoded: "DecodedProgram"
    #: Observer index -> :class:`Ledger`, ``None`` for observers that do
    #: not instrument this launch (emptied once the launch has run).
    ledgers: list = field(default_factory=list)
    shared: SharedMemory | None = None
    #: Allow the warp-cohort batched engine (used when the decoded
    #: program is cohort-ready and the launch has more than one warp).
    warp_batch: bool = True
    #: Per-launch shadow-precision plane (``ShadowState`` from
    #: :mod:`repro.gpu.shadow`), or ``None`` when shadowing is off.
    shadow: "object | None" = None


def _screen(view, regs: tuple[int, ...], mask: np.ndarray) -> bool:
    """True when some lane under ``mask`` holds a NaN, INF or subnormal
    in FP32 register ``regs == (r,)`` or in the FP64 value of register
    pair ``regs == (lo, hi)``; ``view`` is a warp or a cohort view."""
    if len(regs) == 1:
        hit = fpenc.exceptional_f32(view.read_u32(regs[0]))
    else:
        hit = fpenc.exceptional_f64(view.read_u32(regs[0]),
                                    view.read_u32(regs[1]))
    hit &= mask
    return bool(hit.any())


def _classify(view, regs: tuple[int, ...], mask: np.ndarray) -> np.ndarray:
    """Lanes under ``mask`` per fpenc class of the value :func:`_screen`
    reads: shape ``(4,)`` for a warp, ``(n, 4)`` for an ``n``-row cohort,
    indexed VAL/NAN/INF/SUB (the VAL column also counts masked-off
    lanes)."""
    if len(regs) == 1:
        codes = fpenc.classify_f32_bits(view.read_u32(regs[0]))
    else:
        bits = view.read_u32(regs[0]).astype(np.uint64)
        bits |= view.read_u32(regs[1]).astype(np.uint64) << np.uint64(32)
        codes = fpenc.classify_f64_bits(bits)
    codes[~mask] = fpenc.VAL
    if codes.ndim == 1:
        return np.bincount(codes, minlength=4)
    rows = codes.shape[0]
    codes = codes + (np.arange(0, 4 * rows, 4)[:, None])
    return np.bincount(codes.ravel(), minlength=4 * rows).reshape(rows, 4)


@dataclass(slots=True)
class InjectionCtx:
    """Argument bundle passed to injected device functions.

    A probe reads warp state now and charges its observer's ledger;
    anything it emits (channel pushes, tool-state updates) goes through
    :meth:`defer`.  The engines build one context per warp and dispatch
    phase (before or after one op's execute) and rebind ``ledger`` and
    ``args`` for each probe of that phase, so a probe must not keep its
    context after it returns.  Replayed emissions get a context of this
    type too, whose ledger is the invocation being accounted.
    """

    launch: LaunchContext
    ledger: Ledger
    warp: Warp
    instr: Instruction
    exec_mask: np.ndarray
    args: tuple = ()
    #: :meth:`screen` and :meth:`classify` answers by register tuple,
    #: for this context's life.
    _screens: dict = field(default_factory=dict, repr=False)
    _classes: dict = field(default_factory=dict, repr=False)

    def screen(self, regs: tuple[int, ...]) -> bool:
        """True when some lane under ``exec_mask`` holds a NaN, INF or
        subnormal in FP32 register ``regs == (r,)`` or in the FP64 value
        of register pair ``regs == (lo, hi)`` (when False, no check on
        it can fire).  Every probe of this dispatch phase shares one bit
        test per register tuple."""
        hit = self._screens.get(regs)
        if hit is None:
            hit = self._screens[regs] = _screen(self.warp, regs,
                                                self.exec_mask)
        return hit

    def classify(self, regs: tuple[int, ...]) -> np.ndarray:
        """Lane counts under ``exec_mask`` per fpenc class (indexed
        VAL/NAN/INF/SUB; the VAL count also holds masked-off lanes) of
        the value :meth:`screen` tests.  Every probe of this dispatch
        phase shares one classification per register tuple; read-only.
        """
        counts = self._classes.get(regs)
        if counts is None:
            counts = self._classes[regs] = _classify(self.warp, regs,
                                                     self.exec_mask)
        return counts

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
    :meth:`defer`, which the engine sorts into canonical order —
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
    #: :meth:`screen` and :meth:`classify` answers by register tuple,
    #: for this context's life.
    _screens: dict = field(default_factory=dict, repr=False)
    _classes: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        """Number of warps in the cohort."""
        return self.exec_masks.shape[0]

    def screen(self, regs: tuple[int, ...]) -> bool:
        """:meth:`InjectionCtx.screen` over the whole cohort: True when
        some lane of some row under ``exec_masks`` is exceptional."""
        hit = self._screens.get(regs)
        if hit is None:
            hit = self._screens[regs] = _screen(self.cohort, regs,
                                                self.exec_masks)
        return hit

    def classify(self, regs: tuple[int, ...]) -> np.ndarray:
        """:meth:`InjectionCtx.classify` per cohort row: shape
        ``(n, 4)``, row ``i`` counting warp ``i``'s lanes."""
        counts = self._classes.get(regs)
        if counts is None:
            counts = self._classes[regs] = _classify(self.cohort, regs,
                                                     self.exec_masks)
        return counts

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


#: The per-pc hotspot profiler sink (a
#: :class:`repro.harness.profile.ProfileTable`), or ``None`` when
#: profiling is off.  Module-level so the executor keeps no import
#: edge to the harness; installed for a scope
#: by :func:`repro.harness.profile.profile_pcs`.  Every hot loop guards
#: its feed with ``if _PROFILE is not None`` — one global load per
#: instruction when off.
_PROFILE = None


def set_profile_sink(sink) -> None:
    """Install (or clear, with ``None``) the per-pc profiling sink."""
    global _PROFILE
    _PROFILE = sink


class _WarpRunner:
    """Executes one warp of a launch's decoded program."""

    def __init__(self, launch: LaunchContext, warp: Warp) -> None:
        self.launch = launch
        self.warp = warp
        self.code = launch.code

    def run(self, limit: int) -> None:
        """Run until EXIT (all lanes) or a barrier.  ``limit`` caps the
        launch's total warp instructions (see :data:`WARP_INSTR_BUDGET`).

        Every per-instruction resolution (dispatch, operand accessors,
        modifier folding, injection slots) was done once at decode time.
        Counters accumulate in locals and flush on exit (all
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
        slots = shadow.slots if shadow is not None else None
        count_nonzero = np.count_nonzero
        ops = launch.decoded.ops
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

                if dop.before:
                    ctx = InjectionCtx(launch, None, warp, dop.instr,
                                       exec_mask)
                    for inj in dop.before:
                        calls[inj.observer] += 1
                        ctx.ledger = ledgers[inj.observer]
                        ctx.args = inj.args
                        inj.fn(ctx)

                if slots is not None and slots[pc] is not None:
                    advanced = shadow.run_op(dop, self, exec_mask)
                else:
                    advanced = dop.execute(self, exec_mask)

                if dop.after:
                    ctx = InjectionCtx(launch, None, warp, dop.instr,
                                       exec_mask)
                    for inj in dop.after:
                        calls[inj.observer] += 1
                        ctx.ledger = ledgers[inj.observer]
                        ctx.args = inj.args
                        inj.fn(ctx)

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
    if (launch.warp_batch and launch.grid_dim * warps_per_block > 1
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
    slots = None
    if shadow is not None:
        shadow.attach(wset, warps)
        slots = shadow.slots
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
                    if dop.before:
                        cctx = CohortInjectionCtx(launch, None, view,
                                                  dop.instr, masks,
                                                  _defer=_defer)
                        for inj in dop.before:
                            calls[inj.observer] += n
                            cctx.ledger = ledgers[inj.observer]
                            cctx.args = inj.args
                            inj.cohort_fn(cctx)
                    shim.warp = view
                    if slots is not None and slots[pc] is not None:
                        shadow.run_cohort(dop, shim, masks, idx)
                    else:
                        dop.execute(shim, masks)
                    if dop.after:
                        cctx = CohortInjectionCtx(launch, None, view,
                                                  dop.instr, masks,
                                                  _defer=_defer)
                        for inj in dop.after:
                            calls[inj.observer] += n
                            cctx.ledger = ledgers[inj.observer]
                            cctx.args = inj.args
                            inj.cohort_fn(cctx)
                else:
                    shim.warp = view
                    if slots is not None and slots[pc] is not None:
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
                    if slots is not None and slots[pc] is not None:
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
    slots = None
    if shadow is not None:
        shadow.attach(wset, warps)
        slots = shadow.slots
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
                        if dop.before:
                            cctx = CohortInjectionCtx(
                                ectx, None, view, dop.instr, masks,
                                _defer=_defer, row_stats=row_stats)
                            for inj in dop.before:
                                cctx.ledger = ectx.ledgers[inj.observer]
                                cctx.args = inj.args
                                inj.cohort_fn(cctx)
                        shim.warp = view
                        if slots is not None and slots[pc] is not None:
                            shadow.run_cohort(dop, shim, masks, idx)
                        else:
                            dop.execute(shim, masks)
                        if dop.after:
                            cctx = CohortInjectionCtx(
                                ectx, None, view, dop.instr, masks,
                                _defer=_defer, row_stats=row_stats)
                            for inj in dop.after:
                                cctx.ledger = ectx.ledgers[inj.observer]
                                cctx.args = inj.args
                                inj.cohort_fn(cctx)
                    else:
                        shim.warp = view
                        if slots is not None and slots[pc] is not None:
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
                    if slots is not None and slots[pc] is not None:
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
