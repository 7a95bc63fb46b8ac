"""Run programs under tools and collect exceptions + modeled slowdowns.

Every entry point builds through :func:`build_program`, which compiles
the program's kernels, allocates its device memory, and snapshots the
device so the build can be reused (:meth:`BuiltProgram.fresh` restores
it).  Build work is visible as ``harness.build`` spans plus the
``harness.build.cache.{hit,miss}`` counters (a hit is a run that reused
an existing build).  Where one program runs under several
configurations — :func:`measure_slowdowns`' four, or
:func:`run_workload_json`'s baseline and tool — one session observes a
single execution with every configuration at once
(:class:`repro.api.Session` with a list of tools).

:func:`measure_slowdowns_many` is the batch API: it runs the Figure-4/5
measurement over a program set, optionally fanned out across worker
processes by :mod:`repro.harness.parallel` (``jobs > 1``), with results
and telemetry reduced deterministically in program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binfpe import BinFPE
from ..compiler import CompileOptions
from ..fpx import (
    AnalyzerConfig,
    DetectorConfig,
    ExceptionReport,
    FPXAnalyzer,
    FPXDetector,
)
from ..api import Session
from ..gpu.cost import CostModel, RunStats
from ..gpu.device import Device
from ..telemetry import get_telemetry
from ..telemetry.names import (
    CTR_BUILD_CACHE_HIT,
    CTR_BUILD_CACHE_MISS,
    HIST_SLOWDOWN_PREFIX,
    SPAN_HARNESS_BUILD,
    SPAN_RUN_ANALYZER,
    SPAN_RUN_BASELINE,
    SPAN_RUN_BINFPE,
    SPAN_RUN_DETECTOR,
)
from ..workloads.base import Program

__all__ = [
    "BuiltProgram",
    "build_program",
    "run_baseline",
    "run_detector",
    "run_binfpe",
    "run_analyzer",
    "run_workload_json",
    "stats_json",
    "measured_counts",
    "ProgramSlowdowns",
    "measure_slowdowns",
    "measure_slowdowns_many",
]


def _device(cost: CostModel | None) -> Device:
    return Device(cost=cost) if cost is not None else Device()


@dataclass
class BuiltProgram:
    """A program compiled and laid out on a device, replayable many
    times: :meth:`fresh` restores the device to its just-built state, so
    one build serves any number of runs (the four ``measure_slowdowns``
    configurations, repeated ablations, ...)."""

    program: Program
    device: Device
    schedule: list
    _state: tuple = field(repr=False, default=())
    _uses: int = 0

    def fresh(self) -> "BuiltProgram":
        """Restore device memory/channel to the post-build snapshot."""
        if self._uses:
            self.device.restore_state(self._state)
            get_telemetry().count(CTR_BUILD_CACHE_HIT)
        self._uses += 1
        return self


def build_program(program: Program, *,
                  options: CompileOptions | None = None,
                  cost: CostModel | None = None) -> BuiltProgram:
    """Compile + lay out ``program`` once; returns the reusable build."""
    with get_telemetry().span(SPAN_HARNESS_BUILD, program=program.name,
                              suite=program.suite) as sp:
        device = _device(cost)
        schedule = program.build(device, options)
        built = BuiltProgram(program, device, schedule)
        built._state = device.snapshot_state()
        sp.set(launches=len(schedule))
    get_telemetry().count(CTR_BUILD_CACHE_MISS)
    return built


def _built_for(program: Program, built: BuiltProgram | None,
               options: CompileOptions | None,
               cost: CostModel | None) -> BuiltProgram:
    if built is None:
        from .pool import in_worker, warm_build
        if in_worker():
            # Persistent pool workers keep builds warm across units and
            # sweeps; the warm path replays cold-build telemetry and
            # restores the post-build device snapshot, so results and
            # merged telemetry are identical to a cold build.
            return warm_build(program, options=options, cost=cost)
        return build_program(program, options=options, cost=cost)
    if built.program is not program:
        raise ValueError(f"built program is {built.program.name!r}, "
                         f"not {program.name!r}")
    return built


def _execute(built: BuiltProgram, tool, decode_cache: bool,
             warp_batch: bool = True,
             shadow=None) -> tuple[RunStats, Session]:
    """Run ``built``'s schedule from its fresh state under ``tool`` (one
    tool, ``None``, or a list of observers)."""
    built.fresh()
    session = Session(tool, device=built.device,
                      decode_cache=decode_cache, warp_batch=warp_batch,
                      shadow=shadow)
    return session.run_schedule(built.schedule), session


def run_baseline(program: Program, *, options: CompileOptions | None = None,
                 cost: CostModel | None = None,
                 decode_cache: bool = True,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None) -> RunStats:
    """Run a program with no tool attached (the slowdown denominator)."""
    with get_telemetry().span(SPAN_RUN_BASELINE, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        stats, _ = _execute(built, None, decode_cache, warp_batch, shadow)
        sp.set(launches=stats.launches, cycles=stats.total_cycles)
    return stats


def run_detector(program: Program, *, options: CompileOptions | None = None,
                 config: DetectorConfig | None = None,
                 cost: CostModel | None = None,
                 decode_cache: bool = True,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None
                 ) -> tuple[ExceptionReport, RunStats]:
    """Run under the GPU-FPX detector."""
    with get_telemetry().span(SPAN_RUN_DETECTOR, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        detector = FPXDetector(config)
        stats, session = _execute(built, detector, decode_cache, warp_batch,
                                  shadow)
        report = session.report()
        sp.set(launches=stats.launches, records=report.total(),
               channel_messages=stats.channel_messages,
               cycles=stats.total_cycles)
    return report, stats


def run_binfpe(program: Program, *, options: CompileOptions | None = None,
               cost: CostModel | None = None,
               decode_cache: bool = True,
               warp_batch: bool = True,
               shadow=None,
               built: BuiltProgram | None = None
               ) -> tuple[ExceptionReport, RunStats]:
    """Run under the BinFPE baseline."""
    with get_telemetry().span(SPAN_RUN_BINFPE, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        tool = BinFPE()
        stats, session = _execute(built, tool, decode_cache, warp_batch,
                                  shadow)
        report = session.report()
        sp.set(launches=stats.launches, records=report.total(),
               channel_messages=stats.channel_messages,
               cycles=stats.total_cycles)
    return report, stats


def run_analyzer(program: Program, *, options: CompileOptions | None = None,
                 config: AnalyzerConfig | None = None,
                 cost: CostModel | None = None,
                 decode_cache: bool = True,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None
                 ) -> tuple[FPXAnalyzer, RunStats]:
    """Run under the GPU-FPX analyzer (flow tracking)."""
    with get_telemetry().span(SPAN_RUN_ANALYZER, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        analyzer = FPXAnalyzer(config)
        stats, _ = _execute(built, analyzer, decode_cache, warp_batch,
                            shadow)
        sp.set(launches=stats.launches, flow_events=len(analyzer.events),
               cycles=stats.total_cycles)
    return analyzer, stats


def stats_json(stats: RunStats, base: RunStats) -> dict:
    """One run's modeled-cost accounting as plain JSON.

    Part of the public report document (``schema_version`` lives on the
    report half, :data:`repro.fpx.report.REPORT_SCHEMA_VERSION`): the
    CLI's ``--json`` and the ``repro.serve`` job API emit this exact
    structure.
    """
    return {
        "launches": stats.launches,
        "instrumented_launches": stats.instrumented_launches,
        "warp_instrs": stats.warp_instrs,
        "thread_instrs": stats.thread_instrs,
        "base_cycles": stats.base_cycles,
        "injected_cycles": stats.injected_cycles,
        "jit_cycles": stats.jit_cycles,
        "host_cycles": stats.host_cycles,
        "gt_alloc_cycles": stats.gt_alloc_cycles,
        "channel_messages": stats.channel_messages,
        "channel_bytes": stats.channel_bytes,
        "total_cycles": stats.total_cycles,
        "total_seconds": stats.total_seconds,
        "baseline_seconds": base.total_seconds,
        "slowdown": stats.slowdown(base),
        "hung": stats.hung,
    }


def run_workload_json(program_name: str, tool: str = "detector", *,
                      fast_math: bool = False,
                      detector_config: DetectorConfig | None = None,
                      decode_cache: bool = True,
                      warp_batch: bool = True,
                      shadow=None) -> dict:
    """Run one registry workload and return the canonical JSON document.

    This is the single producer of the ``repro.serve`` workload job
    payload, the same structure the CLI's ``run --json`` prints,
    byte-identical for the same program/tool/options (the simulator is
    deterministic).  The program is built once, and the baseline and the
    tool observe one execution.  Raises :class:`KeyError` for an unknown
    program and :class:`ValueError` for an unknown tool.
    """
    from ..workloads import program_by_name
    program = program_by_name(program_name)
    if tool == "binfpe":
        instance, span = BinFPE(), SPAN_RUN_BINFPE
    elif tool == "analyzer":
        instance, span = FPXAnalyzer(AnalyzerConfig()), SPAN_RUN_ANALYZER
    elif tool == "detector":
        instance, span = FPXDetector(detector_config), SPAN_RUN_DETECTOR
    else:
        raise ValueError(f"unknown tool {tool!r}; expected "
                         f"detector, analyzer or binfpe")
    options = CompileOptions.fast_math() if fast_math \
        else CompileOptions.precise()
    payload: dict = {"program": program.name, "suite": program.suite,
                     "tool": tool, "fast_math": fast_math}
    built = _built_for(program, None, options, None)
    with get_telemetry().span(span, program=program.name,
                              suite=program.suite) as sp:
        _, session = _execute(built, [None, instance], decode_cache,
                              warp_batch, shadow)
        base, stats = session.observer_stats(0), session.observer_stats(1)
        if tool == "analyzer":
            payload["analyzer"] = instance.to_json()
            payload["events"] = instance.events_json()
        else:
            payload["report"] = session.report(observer=1).to_json()
        sp.set(launches=stats.launches, cycles=stats.total_cycles)
    payload["stats"] = stats_json(stats, base)
    return payload


def measured_counts(report: ExceptionReport) -> dict[str, int]:
    """Non-zero table cells from a report (paper-table comparable)."""
    return {k: v for k, v in report.counts().items() if v}


@dataclass
class ProgramSlowdowns:
    """One program's modeled slowdowns under each configuration."""

    name: str
    suite: str
    base: RunStats
    binfpe: RunStats
    fpx_no_gt: RunStats
    fpx: RunStats

    @property
    def binfpe_slowdown(self) -> float:
        return self.binfpe.slowdown(self.base)

    @property
    def fpx_no_gt_slowdown(self) -> float:
        return self.fpx_no_gt.slowdown(self.base)

    @property
    def fpx_slowdown(self) -> float:
        return self.fpx.slowdown(self.base)

    @property
    def speedup_over_binfpe(self) -> float:
        """How much faster GPU-FPX is than BinFPE on this program."""
        return self.binfpe_slowdown / self.fpx_slowdown


def measure_slowdowns(program: Program, *,
                      options: CompileOptions | None = None,
                      cost: CostModel | None = None,
                      decode_cache: bool = True,
                      warp_batch: bool = True,
                      built: BuiltProgram | None = None) -> ProgramSlowdowns:
    """The Figure 4/5 measurement: base, BinFPE, FPX w/o GT, FPX w/ GT.

    The program is compiled and laid out once, and one session runs its
    schedule with all four configurations as observers of a single
    execution: no ``harness.build.cache.hit`` for a build made here.
    """
    built = _built_for(program, built, options, cost)
    _, session = _execute(built, [
        None, BinFPE(), FPXDetector(DetectorConfig(use_gt=False)),
        FPXDetector(DetectorConfig(use_gt=True))], decode_cache, warp_batch)
    result = ProgramSlowdowns(program.name, program.suite,
                              *(session.observer_stats(i) for i in range(4)))
    # Figure-4 distributions, accumulated across whatever program set
    # the caller sweeps.
    tel = get_telemetry()
    tel.histogram(HIST_SLOWDOWN_PREFIX + "binfpe", result.binfpe_slowdown)
    tel.histogram(HIST_SLOWDOWN_PREFIX + "fpx_no_gt",
                  result.fpx_no_gt_slowdown)
    tel.histogram(HIST_SLOWDOWN_PREFIX + "fpx", result.fpx_slowdown)
    return result


def measure_slowdowns_many(programs: list[Program], *,
                           options: CompileOptions | None = None,
                           cost: CostModel | None = None,
                           decode_cache: bool = True,
                           warp_batch: bool = True,
                           jobs: int | None = 1,
                           timeout: float | None = None,
                           retries: int = 1,
                           strict: bool = True
                           ) -> list[ProgramSlowdowns | None]:
    """:func:`measure_slowdowns` over a program set — the batch API.

    One sweep unit per program, fanned out across ``jobs`` worker
    processes (``jobs=1``: in-process serial; ``jobs=None``: one per
    core).  Results come back in program order; worker telemetry
    (``slowdown.*`` histograms, spans, counters) is merged into the
    active registry in the same order, so the output is
    indistinguishable from a serial sweep.  With ``strict`` a failed
    unit raises :class:`~repro.harness.parallel.SweepError` naming every
    failure; otherwise failed programs yield ``None``.
    """
    import functools

    from .parallel import SweepUnit, run_sweep

    units = [SweepUnit(f"slowdowns/{p.name}",
                       functools.partial(_slowdowns_unit, p, options, cost,
                                         decode_cache, warp_batch))
             for p in programs]
    result = run_sweep(units, jobs=jobs, timeout=timeout, retries=retries)
    return result.values_strict() if strict else result.values()


def _slowdowns_unit(program: Program, options, cost, decode_cache: bool,
                    warp_batch: bool) -> ProgramSlowdowns:
    """Module-level (picklable) sweep unit for one program's slowdowns."""
    return measure_slowdowns(program, options=options, cost=cost,
                             decode_cache=decode_cache,
                             warp_batch=warp_batch)
