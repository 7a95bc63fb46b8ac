"""The Figure 2 workflow: fast screening, then targeted analysis.

"Utilizing the faster *detector* for initial screening of susceptible
programs and applying the *analyzer* to those with detected exceptions
for a more efficient workflow."  This module is that pipeline as code:

1. run every program under the detector (cheap);
2. re-run only the flagged programs under the analyzer (expensive);
3. return per-program results plus the modeled cost of the pipeline —
   and of the naive alternative (analyzer on everything) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler import CompileOptions
from ..fpx import ExceptionReport, FPXAnalyzer
from ..gpu.cost import CostModel
from ..telemetry import get_telemetry
from ..telemetry.names import SPAN_WORKFLOW, SPAN_WORKFLOW_PROGRAM
from ..workloads.base import Program
from .runner import run_analyzer, run_detector

__all__ = ["ScreeningResult", "WorkflowOutcome", "screen_then_analyze"]


@dataclass
class ScreeningResult:
    """One program's trip through the pipeline."""

    program: str
    report: ExceptionReport
    flagged: bool
    analyzer: FPXAnalyzer | None = None
    detector_cycles: float = 0.0
    analyzer_cycles: float = 0.0


@dataclass
class WorkflowOutcome:
    """The whole pipeline's results and cost accounting."""

    results: list[ScreeningResult] = field(default_factory=list)
    #: modeled cycles of the two-phase pipeline
    pipeline_cycles: float = 0.0
    #: modeled cycles had the analyzer been run on every program
    analyzer_everywhere_cycles: float = 0.0

    @property
    def flagged(self) -> list[ScreeningResult]:
        return [r for r in self.results if r.flagged]

    @property
    def savings(self) -> float:
        """How much cheaper the Figure 2 workflow is."""
        if self.pipeline_cycles == 0:
            return 1.0
        return self.analyzer_everywhere_cycles / self.pipeline_cycles

    def render(self) -> str:
        lines = [f"Figure 2 workflow over {len(self.results)} programs: "
                 f"{len(self.flagged)} flagged by the detector"]
        for r in self.flagged:
            states = dict(r.analyzer.flow_summary()) if r.analyzer else {}
            state_text = ", ".join(f"{s.value}:{c}"
                                   for s, c in states.items())
            lines.append(f"  {r.program}: {r.report.total()} records; "
                         f"flow states {{{state_text}}}")
        lines.append(
            f"pipeline cost {self.pipeline_cycles:.3g} cycles vs "
            f"analyzer-everywhere {self.analyzer_everywhere_cycles:.3g} "
            f"({self.savings:.1f}x saved)")
        return "\n".join(lines)


def _program_leg(program: Program, options, cost
                 ) -> tuple[ScreeningResult, float]:
    """One program's detector + shadow-analyzer leg of the pipeline.

    Returns the screening result plus the analyzer cycles (what the
    naive analyzer-everywhere approach would have paid), which the
    caller accounts whether or not the program was flagged.
    """
    tel = get_telemetry()
    with tel.span(SPAN_WORKFLOW_PROGRAM, program=program.name) as sp:
        report, det_stats = run_detector(program, options=options,
                                         cost=cost)
        result = ScreeningResult(
            program=program.name, report=report,
            flagged=report.has_exceptions(),
            detector_cycles=det_stats.total_cycles)
        # what the naive approach would have paid on this program
        analyzer, ana_stats = run_analyzer(program, options=options,
                                           cost=cost)
        if result.flagged:
            result.analyzer = analyzer
            result.analyzer_cycles = ana_stats.total_cycles
        sp.set(flagged=result.flagged, records=report.total())
    return result, ana_stats.total_cycles


def screen_then_analyze(programs: list[Program], *,
                        options: CompileOptions | None = None,
                        cost: CostModel | None = None,
                        jobs: int | None = 1) -> WorkflowOutcome:
    """Run the two-phase workflow over a program set.

    ``jobs=1`` (default) runs the per-program legs serially in process;
    ``jobs > 1`` fans them out across the sweep engine (reusing an
    installed persistent pool) and reduces in program order, so the
    rendered outcome is identical either way.
    """
    tel = get_telemetry()
    outcome = WorkflowOutcome()
    with tel.span(SPAN_WORKFLOW, programs=len(programs)) as root:
        legs = _run_legs(programs, options, cost, jobs)
        for result, ana_cycles in legs:
            outcome.pipeline_cycles += result.detector_cycles
            outcome.analyzer_everywhere_cycles += ana_cycles
            if result.flagged:
                outcome.pipeline_cycles += result.analyzer_cycles
            outcome.results.append(result)
        root.set(flagged=len(outcome.flagged),
                 cycles=outcome.pipeline_cycles)
    return outcome


def _run_legs(programs: list[Program], options, cost,
              jobs: int | None) -> list[tuple[ScreeningResult, float]]:
    if jobs == 1:
        return [_program_leg(p, options, cost) for p in programs]
    import functools

    from .parallel import SweepUnit, run_sweep

    units = [SweepUnit(f"workflow/{p.name}",
                       functools.partial(_program_leg, p, options, cost))
             for p in programs]
    return run_sweep(units, jobs=jobs).values_strict()
