"""Run programs under tools and collect exceptions + modeled slowdowns.

Every entry point builds through :func:`build_program`, which compiles
the program's kernels, allocates its device memory, and snapshots the
device so the build can be reused (:meth:`BuiltProgram.fresh` restores
it).  Build work is visible as ``harness.build`` spans plus the
``harness.build.cache.{hit,miss}`` counters (a hit is a run that reused
an existing build).  Where one program runs under several
configurations — :func:`evaluate`'s observers, or :func:`run_workload`'s
baseline and tool — one session observes a single execution with every
configuration at once (:class:`repro.api.Session` with a list of tools).

:func:`evaluate_many` is the batch API behind every table and figure:
one sweep unit per (program, build), whose session observes the union
of the observers its requests ask for, optionally fanned out across
worker processes by :mod:`repro.harness.parallel` (``jobs > 1``), with
results and telemetry reduced deterministically in request order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
from ..workloads.registry import registry_key

__all__ = [
    "BuiltProgram",
    "build_program",
    "run_baseline",
    "run_detector",
    "run_binfpe",
    "run_analyzer",
    "run_workload",
    "run_workload_json",
    "stats_json",
    "measured_counts",
    "ProgramSlowdowns",
    "measure_slowdowns",
    "FIG45",
    "Observed",
    "evaluate",
    "evaluate_many",
    "run_plans",
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


def _execute(built: BuiltProgram, tool, warp_batch: bool = True,
             shadow=None) -> tuple[RunStats, Session]:
    """Run ``built``'s schedule from its fresh state under ``tool`` (one
    tool, ``None``, or a list of observers)."""
    built.fresh()
    session = Session(tool, device=built.device, warp_batch=warp_batch,
                      shadow=shadow)
    return session.run_schedule(built.schedule), session


def run_baseline(program: Program, *, options: CompileOptions | None = None,
                 cost: CostModel | None = None,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None) -> RunStats:
    """Run a program with no tool attached (the slowdown denominator)."""
    with get_telemetry().span(SPAN_RUN_BASELINE, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        stats, _ = _execute(built, None, warp_batch, shadow)
        sp.set(launches=stats.launches, cycles=stats.total_cycles)
    return stats


def run_detector(program: Program, *, options: CompileOptions | None = None,
                 config: DetectorConfig | None = None,
                 cost: CostModel | None = None,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None
                 ) -> tuple[ExceptionReport, RunStats]:
    """Run under the GPU-FPX detector."""
    with get_telemetry().span(SPAN_RUN_DETECTOR, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        detector = FPXDetector(config)
        stats, session = _execute(built, detector, warp_batch, shadow)
        report = session.report()
        sp.set(launches=stats.launches, records=report.total(),
               channel_messages=stats.channel_messages,
               cycles=stats.total_cycles)
    return report, stats


def run_binfpe(program: Program, *, options: CompileOptions | None = None,
               cost: CostModel | None = None,
               warp_batch: bool = True,
               shadow=None,
               built: BuiltProgram | None = None
               ) -> tuple[ExceptionReport, RunStats]:
    """Run under the BinFPE baseline."""
    with get_telemetry().span(SPAN_RUN_BINFPE, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        tool = BinFPE()
        stats, session = _execute(built, tool, warp_batch, shadow)
        report = session.report()
        sp.set(launches=stats.launches, records=report.total(),
               channel_messages=stats.channel_messages,
               cycles=stats.total_cycles)
    return report, stats


def run_analyzer(program: Program, *, options: CompileOptions | None = None,
                 config: AnalyzerConfig | None = None,
                 cost: CostModel | None = None,
                 warp_batch: bool = True,
                 shadow=None,
                 built: BuiltProgram | None = None
                 ) -> tuple[FPXAnalyzer, RunStats]:
    """Run under the GPU-FPX analyzer (flow tracking)."""
    with get_telemetry().span(SPAN_RUN_ANALYZER, program=program.name,
                              suite=program.suite) as sp:
        built = _built_for(program, built, options, cost)
        analyzer = FPXAnalyzer(config)
        stats, _ = _execute(built, analyzer, warp_batch, shadow)
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


def run_workload(program: Program, tool: str = "detector", *,
                 options: CompileOptions | None = None,
                 detector_config: DetectorConfig | None = None,
                 warp_batch: bool = True,
                 shadow=None) -> tuple:
    """Run ``program`` under ``tool`` (``"detector"``, ``"binfpe"`` or
    ``"analyzer"``) the way ``repro run`` and the job service do.

    The program is built once, and the baseline (observer 0) and the
    tool (observer 1) observe one execution under the tool's ``run.*``
    span.  Returns ``(base, stats, report, analyzer)``: the baseline's
    and the tool's :class:`RunStats`, then the tool's
    :class:`ExceptionReport` (shadow findings attached) and ``None``,
    or for the analyzer ``None`` and the :class:`FPXAnalyzer`.  Raises
    :class:`ValueError` for an unknown tool.
    """
    if tool == "binfpe":
        instance, span = BinFPE(), SPAN_RUN_BINFPE
    elif tool == "analyzer":
        instance, span = FPXAnalyzer(AnalyzerConfig()), SPAN_RUN_ANALYZER
    elif tool == "detector":
        instance, span = FPXDetector(detector_config), SPAN_RUN_DETECTOR
    else:
        raise ValueError(f"unknown tool {tool!r}; expected "
                         f"detector, analyzer or binfpe")
    built = _built_for(program, None, options, None)
    with get_telemetry().span(span, program=program.name,
                              suite=program.suite) as sp:
        _, session = _execute(built, [None, instance], warp_batch, shadow)
        base, stats = session.observer_stats(0), session.observer_stats(1)
        if tool == "analyzer":
            report, analyzer = None, instance
            sp.set(launches=stats.launches,
                   flow_events=len(instance.events),
                   cycles=stats.total_cycles)
        else:
            report, analyzer = session.report(observer=1), None
            sp.set(launches=stats.launches, records=report.total(),
                   channel_messages=stats.channel_messages,
                   cycles=stats.total_cycles)
    return base, stats, report, analyzer


def run_workload_json(program_name: str, tool: str = "detector", *,
                      fast_math: bool = False,
                      detector_config: DetectorConfig | None = None,
                      warp_batch: bool = True,
                      shadow=None) -> dict:
    """Run one registry workload and return the canonical JSON document.

    This is the single producer of the ``repro.serve`` workload job
    payload, the same structure the CLI's ``run --json`` prints,
    byte-identical for the same program/tool/options (the simulator is
    deterministic); both run through :func:`run_workload`.  Raises
    :class:`KeyError` for an unknown program and :class:`ValueError`
    for an unknown tool.
    """
    from ..workloads import program_by_name
    program = program_by_name(program_name)
    options = CompileOptions.fast_math() if fast_math \
        else CompileOptions.precise()
    base, stats, report, analyzer = run_workload(
        program, tool, options=options, detector_config=detector_config,
        warp_batch=warp_batch, shadow=shadow)
    payload: dict = {"program": program.name, "suite": program.suite,
                     "tool": tool, "fast_math": fast_math}
    if analyzer is not None:
        payload["analyzer"] = analyzer.to_json()
        payload["events"] = analyzer.events_json()
    else:
        payload["report"] = report.to_json()
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


#: The Figure 4/5 observers: the baseline, BinFPE, and GPU-FPX without
#: and with the GT table.  An observer key is ``None`` (the baseline),
#: ``"binfpe"`` or a :class:`DetectorConfig`; equal keys are one observer.
FIG45 = (None, "binfpe", DetectorConfig(use_gt=False), DetectorConfig())


class Observed(NamedTuple):
    """One observer's share of an evaluated run."""

    stats: RunStats
    report: ExceptionReport | None  # ``None`` for the baseline


def evaluate(program: Program, observers, *,
             options: CompileOptions | None = None,
             cost: CostModel | None = None,
             warp_batch: bool = True,
             built: BuiltProgram | None = None) -> dict:
    """Build ``program`` once and run its schedule in one session
    observed by every key in ``observers``; returns ``{key: Observed}``.
    """
    keys = list(dict.fromkeys(observers))
    built = _built_for(program, built, options, cost)
    _, session = _execute(built, [
        k if k is None else BinFPE() if k == "binfpe" else FPXDetector(k)
        for k in keys], warp_batch)
    return {k: Observed(session.observer_stats(i),
                        None if k is None else session.report(observer=i))
            for i, k in enumerate(keys)}


def evaluate_many(requests, *, warp_batch: bool = True,
                  jobs: int | None = 1) -> list[dict]:
    """:func:`evaluate` over ``(program, options, observers)`` requests.

    Requests for the same (program, build) share one sweep unit, keyed
    ``precise/<program>`` or ``fast-math/<program>``, whose session
    observes the union of their observers; each request gets its unit's
    record, in request order.  Units fan out across ``jobs`` worker
    processes (``1``: in-process; ``None``: one per core) and their
    telemetry merges in unit order, so the result does not depend on
    ``jobs``.  A failed unit raises
    :class:`~repro.harness.parallel.SweepError`.
    """
    import functools

    from .parallel import SweepUnit, run_sweep

    units: dict = {}  # (program identity, options) -> its unit's inputs
    for program, options, observers in requests:
        unit = units.setdefault((id(program), options), (program, options, {}))
        unit[2].update(dict.fromkeys(observers))
    sweep = [SweepUnit(
        ("fast-math/" if options and options.is_fast_math else "precise/")
        + (registry_key(program) or program.name),
        functools.partial(evaluate, program, tuple(keys), options=options,
                          warp_batch=warp_batch))
        for program, options, keys in units.values()]
    records = dict(zip(units, run_sweep(sweep, jobs=jobs).values_strict()))
    return [records[id(program), options] for program, options, _ in requests]


def run_plans(*plans, warp_batch: bool = True, jobs: int | None = 1) -> list:
    """``finish(records)`` of each ``(requests, finish)`` plan, all from
    one :func:`evaluate_many` over every plan's requests."""
    records = evaluate_many([r for requests, _ in plans for r in requests],
                            warp_batch=warp_batch, jobs=jobs)
    out = []
    for requests, finish in plans:
        out.append(finish(records[:len(requests)]))
        records = records[len(requests):]
    return out


def _slowdowns(program: Program, record: dict) -> ProgramSlowdowns:
    """The Figure 4/5 measurement out of a record of the :data:`FIG45`
    observers; accumulates the Figure-4 ``slowdown.*`` distributions
    over whatever program set the caller sweeps."""
    result = ProgramSlowdowns(program.name, program.suite,
                              *(record[k].stats for k in FIG45))
    tel = get_telemetry()
    tel.histogram(HIST_SLOWDOWN_PREFIX + "binfpe", result.binfpe_slowdown)
    tel.histogram(HIST_SLOWDOWN_PREFIX + "fpx_no_gt",
                  result.fpx_no_gt_slowdown)
    tel.histogram(HIST_SLOWDOWN_PREFIX + "fpx", result.fpx_slowdown)
    return result


def measure_slowdowns(program: Program, *,
                      options: CompileOptions | None = None,
                      cost: CostModel | None = None,
                      warp_batch: bool = True,
                      built: BuiltProgram | None = None) -> ProgramSlowdowns:
    """The Figure 4/5 measurement: base, BinFPE, FPX w/o GT, FPX w/ GT.

    The program is compiled and laid out once, and one session runs its
    schedule with all four configurations as observers of a single
    execution: no ``harness.build.cache.hit`` for a build made here.
    """
    return _slowdowns(program, evaluate(
        program, FIG45, options=options, cost=cost, warp_batch=warp_batch,
        built=built))
