"""Interception runtime: sits between launches and the device.

This is the Figure-1 layer: every kernel launch passes through the
runtime, which asks each attached tool whether to instrument (Algorithm
3 is implemented inside the tool), fetches/creates the instrumented
SASS, charges JIT cost for instrumented launches, executes, and pumps
channel messages to each tool's host-side receiver.

**One execution, many observers.**  A runtime carries one or more
observers: each is a tool (or ``None``, the uninstrumented baseline)
with its own :class:`~repro.gpu.cost.RunStats`, plan cache, channel,
shadow tracker and Algorithm-3 decisions.  Tools only read registers
and write their own channels, so every observer sees the same register,
memory and control-flow trajectory: the runtime executes each launch
*once* with the plans of every observer that instruments it overlaid
(:func:`~repro.gpu.decode.fuse_plan`), and each observer's probes charge
its own ledger and defer their emissions.  An observer's view of the
launch is the execution's counts plus its ledger, with its emissions
replayed against its own host-side state.  A solo run is the
one-observer case.

``launch`` supports a ``repeat`` count for launches that are logically
executed many times with identical inputs (neural-network style kernels,
CuMF-Movielens' ALS updates...).  A stateless ``repeat=N`` spec executes
once, with every observer that instruments any of its invocations; per
observer, an uninstrumented invocation takes the execution's counts,
the first instrumented one (cold) replays the recorded emissions, the
second (warm) replays them again against the state the cold one left —
the GT has the records now — and the remaining invocations repeat the
warm counts analytically.  This is exact: an identical relaunch follows
the same trajectory, so probe charges repeat and only the emissions'
effect on host state can change, which the replay reproduces; the dedup
behaviour (the GT table) is stationary after the warm invocation.
Stateful specs execute once per invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.channel import Channel
from ..gpu.cost import LaunchStats, RunStats
from ..gpu.decode import DecodedProgram, decode_program, fuse_plan
from ..gpu.device import Device, LaunchConfig
from ..gpu.executor import Ledger, replay
from ..gpu.shadow import ShadowState
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import (
    CTR_DECODE_CACHE_HIT,
    CTR_DECODE_CACHE_MISS,
    CTR_JIT_HITS,
    CTR_JIT_MISSES,
    CTR_MEGABATCH_BATCHES,
    CTR_MEGABATCH_FALLBACK,
    CTR_MEGABATCH_MEMBERS,
    SPAN_DECODE,
    SPAN_MEGABATCH,
    SPAN_NVBIT_DRAIN,
    SPAN_NVBIT_EXECUTE,
    SPAN_NVBIT_INSTRUMENT,
    SPAN_NVBIT_LAUNCH,
)
from .plan import InstrumentationPlan
from .tool import NVBitTool

__all__ = ["ToolRuntime", "LaunchSpec", "BatchResult", "Observer",
           "WARM_DECODE_STATS"]

#: Process-wide count of bare-decode reuse (the ``code._decoded_bare``
#: memo in :func:`repro.gpu.decode.decode_program`).  In persistent pool
#: workers this is the decode warmth that accumulates across sweeps —
#: shipped home in pool result metadata and surfaced by ``PoolStats``.
#: Reuse is telemetry-invisible by construction: the decode span and
#: miss counter are emitted identically either way, only the redundant
#: per-instruction decode work is skipped.
WARM_DECODE_STATS = {"hits": 0}


@dataclass(frozen=True)
class LaunchSpec:
    """One logical kernel launch in a program's schedule."""

    code: KernelCode
    config: LaunchConfig = field(default_factory=LaunchConfig)
    params: tuple[int, ...] = ()
    #: Number of back-to-back identical invocations of this launch.
    repeat: int = 1
    #: Stateful launches (each invocation reads what the previous wrote)
    #: are simulated individually; stateless repeats are cached.
    stateful: bool = False
    #: Models a grid ``work_scale`` times larger than the simulated one:
    #: dynamic counts (and undeduplicated channel traffic) are multiplied
    #: after simulation.  Exception *records* do not change — a larger
    #: grid exercises the same locations.
    work_scale: int = 1


@dataclass
class BatchResult:
    """Outcome of :meth:`ToolRuntime.run_batch`.

    ``engine`` names the path taken: ``"megabatch"`` (one stacked pass)
    or ``"serial"`` (the member-by-member fallback, with
    ``fallback_reason`` set when the batch was megabatch-ineligible).
    ``stats`` holds one :class:`LaunchStats` per member — ``None`` for
    members that went through the full repeat-aware serial launcher.
    """

    engine: str
    members: int
    stats: list
    fallback_reason: str | None = None
    _mega: object = None
    _snapshots: list | None = None

    def read_back(self, member: int, addr: int, dtype,
                  count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` at ``addr`` from member
        ``member``'s final global-memory image.

        On the serial-fallback path only the device's *allocated prefix*
        is snapshotted per member, so reads beyond it raise IndexError
        (raw unallocated addresses are reachable only from device code).
        """
        if self._mega is not None:
            return self._mega.member_view(member).read_array(
                addr, dtype, count)
        prefix, nxt, _loads, _stores = self._snapshots[member]
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        if addr < 0 or addr + nbytes > nxt:
            raise IndexError(
                f"read_back outside the snapshotted prefix: "
                f"addr={addr:#x} nbytes={nbytes} (prefix ends {nxt:#x})")
        return prefix[addr:addr + nbytes].view(dtype).copy()


class Observer:
    """One tool (or ``None``: the uninstrumented baseline) watching a
    runtime's executions, with everything its own run would own."""

    def __init__(self, index: int, tool: NVBitTool | None, run: RunStats,
                 shadow_tracker=None) -> None:
        self.index = index
        self.tool = tool
        self.run = run
        self.shadow_tracker = shadow_tracker
        self.channel = Channel()
        self._plans: dict[str, InstrumentationPlan] = {}

    def should_instrument(self, kernel_name: str) -> bool:
        """This observer's Algorithm-3 decision for one invocation."""
        return self.tool is not None and \
            self.tool.should_instrument(kernel_name)

    def plan_for(self, code: KernelCode) -> InstrumentationPlan:
        plan = self._plans.get(code.name)
        if plan is None:
            # NVBit JIT: first instrumented use of this kernel's SASS.
            with get_telemetry().span(SPAN_NVBIT_INSTRUMENT,
                                      kernel=code.name,
                                      static_instrs=len(code)) as sp:
                plan = self.tool.plan_kernel(code)
                sp.set(hooks=len(plan))
            get_telemetry().count(CTR_JIT_MISSES)
            self._plans[code.name] = plan
        else:
            get_telemetry().count(CTR_JIT_HITS)
        return plan

    def account(self, spec: "LaunchSpec", ex: "_Execution",
                instrumented: bool) -> LaunchStats:
        """One invocation as this observer's own run would simulate it.

        The execution's shadow record goes to this observer's tracker;
        the stats are the execution's counts plus (``instrumented``)
        this observer's probe-phase ledger and a replay of its recorded
        emissions against the current host-side state, whose channel
        traffic is then drained to the tool.
        """
        base = ex.base
        if ex.shadow is not None:
            ex.shadow.apply(self.shadow_tracker)
        stats = LaunchStats(base.kernel_name,
                            static_instrs=base.static_instrs)
        stats.merge_scaled(base)
        if instrumented:
            ledger = ex.ledgers[self.index]
            stats.instrumented = True
            stats.merge_scaled(ledger.stats)
            replay(ledger.emissions, Ledger(stats, self.channel))
        if self.tool is not None:
            with get_telemetry().span(SPAN_NVBIT_DRAIN,
                                      kernel=spec.code.name) as sp:
                pending = self.channel.drain()
                if pending:
                    self.tool.receive(pending)
                sp.set(messages=len(pending))
        if spec.work_scale > 1:
            self._scale(stats, spec.work_scale)
        return stats

    def _scale(self, stats: LaunchStats, factor: int) -> None:
        """Extrapolate the simulated slice to the full modeled grid."""
        stats.warp_instrs *= factor
        stats.thread_instrs *= factor
        stats.base_cycles *= factor
        stats.fp_warp_instrs *= factor
        stats.fp_thread_instrs *= factor
        stats.injected_calls *= factor
        stats.injected_cycles *= factor
        # Tools that deduplicate records (GPU-FPX's GT) would send the
        # same record set from a larger grid; per-occurrence senders
        # (BinFPE, GPU-FPX w/o GT) scale linearly.
        if not getattr(self.tool, "dedups_channel_messages", False):
            stats.channel_messages *= factor
            stats.channel_bytes *= factor


@dataclass
class _Execution:
    """What one execution left for its observers to account."""

    #: The execution's own counts (no tool charges).
    base: LaunchStats
    #: Observer index -> its probe-phase ledger (``None`` when the
    #: observer did not instrument this execution).
    ledgers: list
    #: The recorded shadow plane, or ``None`` when shadowing is off.
    shadow: ShadowState | None = None


class ToolRuntime:
    """Runs a program's launch schedule under zero or more observers.

    ``tool`` is one tool, ``None`` (an uninstrumented run) or a list of
    either — one observer each, all fed by one execution per launch.
    ``tool``, ``run`` and ``shadow_tracker`` name observer 0's.

    Direct construction is an error — go through
    :class:`repro.api.Session`, which owns the runtime and forwards
    ``decode_cache``/``warp_batch``/``megabatch``.  (White-box callers
    inside this package pass ``_via_session=True``.)
    """

    def __init__(self, device: Device,
                 tool: "NVBitTool | None | list" = None, *,
                 decode_cache: bool = True, warp_batch: bool = True,
                 megabatch: bool = True,
                 shadow=None, shadow_trackers=None,
                 _via_session: bool = False) -> None:
        if not _via_session:
            raise RuntimeError(
                "constructing ToolRuntime directly was removed; use "
                "repro.api.Session instead — e.g. Session(tool, "
                "device=device).run_schedule([...]) — which owns the "
                "runtime and its caches")
        self.device = device
        tools = list(tool) if isinstance(tool, (list, tuple)) else [tool]
        if not tools:
            raise ValueError("a runtime needs at least one observer")
        trackers = list(shadow_trackers) if shadow_trackers is not None \
            else [None] * len(tools)
        self.observers = [Observer(i, t, RunStats(cost=device.cost), tr)
                          for i, (t, tr) in enumerate(zip(tools, trackers))]
        #: ``decode_cache=False`` is the ``--no-decode-cache`` escape
        #: hatch: run the legacy dict-dispatch interpreter with per-pc
        #: hook dicts instead of decoded micro-op programs.
        self.decode_cache = decode_cache
        #: ``warp_batch=False`` is the ``--no-warp-batch`` escape hatch:
        #: force the serial per-warp engine even on cohort-ready,
        #: multi-warp launches.
        self.warp_batch = warp_batch
        #: ``megabatch=False`` is the ``--no-megabatch`` escape hatch:
        #: :meth:`run_batch` always takes the member-by-member serial
        #: fallback.
        self.megabatch = megabatch
        #: Shadow-precision plane config (a ShadowConfig), or ``None``
        #: when shadow execution is off; each observer's divergence
        #: tracker is its ``shadow_tracker``.
        self.shadow = shadow
        #: (kernel fingerprint, ((observer, plan fingerprint), ...)) ->
        #: decoded program; an empty tuple keys the bare decode.
        self._decoded_cache: dict[tuple, DecodedProgram] = {}
        self._started = False

    @property
    def tool(self) -> NVBitTool | None:
        return self.observers[0].tool

    @property
    def run(self) -> RunStats:
        return self.observers[0].run

    @property
    def shadow_tracker(self):
        return self.observers[0].shadow_tracker

    def _ensure_started(self) -> None:
        if not self._started:
            self._started = True
            for obs in self.observers:
                if obs.tool is not None:
                    obs.tool.on_context_start(obs.run)

    def _decoded_for(self, code: KernelCode,
                     plans: "list[tuple[int, InstrumentationPlan]]"
                     ) -> DecodedProgram:
        # An *empty* plan still marks the launch instrumented and keys
        # differently from the bare decode.
        key = (code.fingerprint(),
               tuple((i, plan.fingerprint) for i, plan in plans))
        decoded = self._decoded_cache.get(key)
        if decoded is not None:
            get_telemetry().count(CTR_DECODE_CACHE_HIT)
            return decoded
        get_telemetry().count(CTR_DECODE_CACHE_MISS)
        if getattr(code, "_decoded_bare", None) is not None:
            WARM_DECODE_STATS["hits"] += 1
        with get_telemetry().span(SPAN_DECODE, kernel=code.name,
                                  static_instrs=len(code),
                                  instrumented=bool(plans)) as sp:
            decoded = decode_program(code)
            for i, plan in plans:
                decoded = fuse_plan(decoded, plan, i)
            sp.set(fused=sum(len(plan) for _, plan in plans))
        self._decoded_cache[key] = decoded
        return decoded

    def _execute(self, spec: LaunchSpec,
                 instrumenting: "list[bool]") -> _Execution:
        """Execute ``spec`` once with the plans of every observer
        flagged in ``instrumenting`` overlaid."""
        tel = get_telemetry()
        plans = [(obs.index, obs.plan_for(spec.code))
                 for obs, on in zip(self.observers, instrumenting) if on]
        ledgers = [Ledger(LaunchStats(), obs.channel) if on else None
                   for obs, on in zip(self.observers, instrumenting)]
        if self.decode_cache:
            decoded = self._decoded_for(spec.code, plans)
            hooks = None
        else:
            decoded = None
            hooks = [hook for i, plan in plans
                     for hook in plan.to_hooks(i)] if plans else None
        shadow_state = None
        if self.shadow is not None:
            shadow_state = ShadowState(self.shadow, spec.code)
        with tel.span(SPAN_NVBIT_EXECUTE, kernel=spec.code.name,
                      instrumented=bool(plans)) as sp:
            stats = self.device._launch_kernel(spec.code, spec.config,
                                               list(spec.params), hooks=hooks,
                                               decoded=decoded,
                                               warp_batch=self.warp_batch,
                                               shadow=shadow_state,
                                               ledgers=ledgers)
            probes = [led.stats for led in ledgers if led is not None]
            sp.set(warp_instrs=stats.warp_instrs,
                   injected_calls=sum(p.injected_calls for p in probes),
                   cycles=stats.base_cycles
                   + sum(p.injected_cycles for p in probes))
        return _Execution(stats, ledgers, shadow_state)

    def launch(self, spec: LaunchSpec) -> None:
        """Run one launch spec (all its repeats) and account its costs."""
        names = [obs.tool.name for obs in self.observers
                 if obs.tool is not None]
        with get_telemetry().span(SPAN_NVBIT_LAUNCH,
                                  kernel=spec.code.name,
                                  repeat=spec.repeat,
                                  tool=",".join(names) or None):
            self._launch(spec)

    def _launch(self, spec: LaunchSpec) -> None:
        self._ensure_started()
        name = spec.code.name
        if spec.stateful:
            for _ in range(spec.repeat):
                decisions = [obs.should_instrument(name)
                             for obs in self.observers]
                ex = self._execute(spec, decisions)
                for obs, on in zip(self.observers, decisions):
                    obs.run.add_launch(obs.account(spec, ex, on))
            return
        # Stateless: poll every invocation's decisions (each tool's
        # Algorithm-3 counters advance once per logical invocation),
        # then execute once for every observer that instruments any.
        decisions = [[obs.should_instrument(name)
                      for _ in range(spec.repeat)]
                     for obs in self.observers]
        ex = self._execute(spec, [any(d) for d in decisions])
        for obs, obs_decisions in zip(self.observers, decisions):
            self._account_repeats(obs, spec, ex, obs_decisions)

    def _account_repeats(self, obs: Observer, spec: LaunchSpec,
                         ex: _Execution, decisions: "list[bool]") -> None:
        """Fold a stateless spec's invocations into ``obs``'s run: the
        uninstrumented invocations share one view of the execution, the
        first two instrumented ones are accounted cold and warm, and
        later ones repeat the warm counts."""
        if obs.tool is None:
            stats = obs.account(spec, ex, False)
            obs.run.add_launch(stats, repeat=1)
            if spec.repeat > 1:
                obs.run.add_launch(stats, repeat=spec.repeat - 1)
            return
        plain: LaunchStats | None = None
        warm: LaunchStats | None = None
        replays = warm_pending = 0
        for instrumented in decisions:
            if not instrumented:
                if plain is None:
                    plain = obs.account(spec, ex, False)
                obs.run.add_launch(plain)
            elif replays < 2:
                warm = obs.account(spec, ex, True)
                replays += 1
                obs.run.add_launch(warm)
            else:
                warm_pending += 1
        if warm_pending:
            obs.run.add_launch(warm, repeat=warm_pending)

    # -- launch-batched execution (megabatch) -------------------------------

    def run_batch(self, specs: "list[LaunchSpec]") -> BatchResult:
        """Run N *independent* launches of the same kernel as one batch.

        Each member sees the device's current memory image as its
        initial state and runs in isolation (writes of one member are
        invisible to the others); per-member results are read through
        :meth:`BatchResult.read_back` and the tool's member-partitioned
        state — the device's own memory is left untouched.

        Eligible batches (same kernel and geometry, ``repeat == 1``,
        cohort-ready decoded program, member-aware tool) execute as one
        stacked megabatch pass; everything else falls back to the serial
        member loop, counted in ``megabatch.fallback``.  Unlike
        :meth:`run_program` this does not fire ``on_program_end``.
        Batches run under one observer: a runtime with several raises
        :class:`ValueError`.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("run_batch needs at least one spec")
        if len(self.observers) > 1:
            raise ValueError("run_batch runs under one observer; this "
                             f"runtime has {len(self.observers)}")
        with get_telemetry().span(SPAN_MEGABATCH,
                                  kernel=specs[0].code.name,
                                  members=len(specs)) as sp:
            result = self._run_batch(specs)
            sp.set(engine=result.engine,
                   fallback=result.fallback_reason or "")
        return result

    def _run_batch(self, specs: "list[LaunchSpec]") -> BatchResult:
        self._ensure_started()
        obs = self.observers[0]
        tool = obs.tool
        n = len(specs)
        if n == 1:
            # Nothing to stack; run serially but do not call it a
            # fallback.
            return self._serial_batch(specs, None, None,
                                      count_fallback=False)
        reason = self._batch_ineligibility(specs)
        if reason is not None:
            return self._serial_batch(specs, None, reason,
                                      count_fallback=True)
        # Poll Algorithm-3 instrumentation decisions once per member,
        # with that member's host-side tool state bound — exactly the
        # sequence N serial launches with per-member tools would see.
        bind = self._member_binder()
        if tool is not None:
            decisions = []
            for m in range(n):
                bind(m)
                decisions.append(tool.should_instrument(specs[0].code.name))
        else:
            decisions = [False] * n
        if any(decisions) and not all(decisions):
            # Members disagree about instrumentation; the polled
            # decisions are reused so the tool's counters advance once.
            return self._serial_batch(specs, decisions,
                                      "mixed-instrumentation",
                                      count_fallback=True)
        instrumented = decisions[0]
        plans = [(0, obs.plan_for(specs[0].code))] if instrumented else []
        decoded = self._decoded_for(specs[0].code, plans)
        if not decoded.cohort_ready:
            return self._serial_batch(specs, decisions, "not-cohort-ready",
                                      count_fallback=True)
        shadow_state = None
        if self.shadow is not None:
            shadow_state = ShadowState(self.shadow, specs[0].code)
        ledgers = [Ledger(LaunchStats(), obs.channel) if instrumented
                   else None for _ in specs]
        base_list, mega = self.device._launch_megabatch(
            specs[0].code, specs[0].config,
            [list(s.params) for s in specs], decoded, ledgers,
            shadow=shadow_state)
        if shadow_state is not None:
            shadow_state.apply(obs.shadow_tracker)
        stats_list = []
        for m, (spec, base) in enumerate(zip(specs, base_list)):
            if bind is not None:
                bind(m)
            stats = obs.account(spec, _Execution(base, [ledgers[m]]),
                                instrumented)
            obs.run.add_launch(stats)
            stats_list.append(stats)
        tel = get_telemetry()
        tel.count(CTR_MEGABATCH_BATCHES)
        tel.count(CTR_MEGABATCH_MEMBERS, n)
        return BatchResult("megabatch", n, stats_list, None, _mega=mega)

    def _batch_ineligibility(self, specs: "list[LaunchSpec]") -> str | None:
        """The reason this batch cannot take the megabatch engine, or
        ``None`` when it can."""
        if not (self.megabatch and self.decode_cache and self.warp_batch):
            return "megabatch-disabled"
        if any(s.repeat != 1 or s.stateful or s.work_scale != 1
               for s in specs):
            return "repeat-or-stateful"
        fp = specs[0].code.fingerprint()
        if any(s.code.fingerprint() != fp for s in specs[1:]):
            return "mixed-kernels"
        if any(s.config != specs[0].config for s in specs[1:]):
            return "mixed-geometry"
        if self.tool is not None \
                and not hasattr(self.tool, "bind_member"):
            return "tool-not-member-aware"
        if self.device.global_mem.size * len(specs) > (1 << 32):
            return "address-space"
        return None

    def _member_binder(self):
        """A callable binding member ``m``'s host-side state on both the
        tool and the shadow tracker, or ``None`` when neither partitions
        state.  The shadow tracker must follow the tool's binds so that
        serial-fallback observations (which carry no explicit member)
        land in the right member's record table."""
        tool_bind = getattr(self.tool, "bind_member", None)
        tracker = self.shadow_tracker
        if tool_bind is None and tracker is None:
            return None

        def bind(m: int) -> None:
            if tool_bind is not None:
                tool_bind(m)
            if tracker is not None:
                tracker.bind_member(m)

        return bind

    def _serial_batch(self, specs: "list[LaunchSpec]",
                      decisions: "list[bool] | None",
                      reason: str | None, *,
                      count_fallback: bool) -> BatchResult:
        """Member-by-member fallback: each member starts from the
        device's current state (snapshot/restore isolation) with the
        member-aware tool (if any) bound to it."""
        obs = self.observers[0]
        bind = self._member_binder()
        init = self.device.snapshot_state()
        stats_list: list[LaunchStats | None] = []
        snapshots = []
        for m, spec in enumerate(specs):
            if m:
                self.device.restore_state(init)
            if bind is not None:
                bind(m)
            if decisions is not None:
                ex = self._execute(spec, [decisions[m]])
                stats = obs.account(spec, ex, decisions[m])
                obs.run.add_launch(stats)
                stats_list.append(stats)
            else:
                self.launch(spec)
                stats_list.append(None)
            snapshots.append(self.device.global_mem.snapshot())
        self.device.restore_state(init)
        if count_fallback:
            get_telemetry().count(CTR_MEGABATCH_FALLBACK)
        return BatchResult("serial", len(specs), stats_list, reason,
                           _snapshots=snapshots)

    def run_program(self, schedule: list[LaunchSpec]) -> RunStats:
        """Run a whole launch schedule; returns observer 0's accumulated
        stats (every observer's are on :attr:`observers`)."""
        for spec in schedule:
            self.launch(spec)
        self.finish()
        return self.run

    def finish(self) -> None:
        """Fire every tool's end-of-program hook."""
        for obs in self.observers:
            if obs.tool is not None:
                obs.tool.on_program_end()
