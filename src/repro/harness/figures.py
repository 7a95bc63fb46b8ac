"""Data generators for the paper's figures (4, 5 and 6).

Each generator takes ``jobs``: ``1`` (default) runs in-process
serially, ``N > 1`` shards the per-program runs across worker processes via
:mod:`repro.harness.parallel` and reduces in program order, so renders
are byte-identical across job counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler import CompileOptions
from ..fpx import DetectorConfig
from ..gpu.cost import CostModel
from ..workloads.base import Program
from .runner import (
    ProgramSlowdowns,
    measure_slowdowns_many,
    run_detector,
)
from .stats import BUCKETS, bucket_label, fraction_below, geomean, \
    histogram_buckets

__all__ = ["Figure4Data", "figure4", "Figure5Data", "figure5",
           "Figure6Data", "figure6", "InputSweepData", "input_sweep"]


@dataclass
class Figure4Data:
    """Slowdown distribution: BinFPE vs GPU-FPX w/o GT vs w/ GT."""

    measurements: list[ProgramSlowdowns]

    @property
    def binfpe(self) -> list[float]:
        return [m.binfpe_slowdown for m in self.measurements]

    @property
    def fpx_no_gt(self) -> list[float]:
        return [m.fpx_no_gt_slowdown for m in self.measurements]

    @property
    def fpx(self) -> list[float]:
        return [m.fpx_slowdown for m in self.measurements]

    def histograms(self) -> dict[str, list[int]]:
        return {
            "BinFPE": histogram_buckets(self.binfpe),
            "GPU-FPX w/o GT": histogram_buckets(self.fpx_no_gt),
            "GPU-FPX w/ GT": histogram_buckets(self.fpx),
        }

    def render(self) -> str:
        """ASCII rendition of the Figure 4 histogram."""
        lines = ["Figure 4 — slowdown distribution over "
                 f"{len(self.measurements)} programs"]
        header = f"{'bucket':>16} | " + " | ".join(
            f"{name:>15}" for name in self.histograms())
        lines.append(header)
        lines.append("-" * len(header))
        hists = self.histograms()
        for i in range(len(BUCKETS)):
            row = f"{bucket_label(i):>16} | " + " | ".join(
                f"{hists[name][i]:>15}" for name in hists)
            lines.append(row)
        lines.append(
            f"under 10x: GPU-FPX {fraction_below(self.fpx, 10):.0%}, "
            f"BinFPE {fraction_below(self.binfpe, 10):.0%} "
            "(paper: over 60% vs only 40%)")
        return "\n".join(lines)


def figure4(programs: list[Program], *, cost: CostModel | None = None,
            warp_batch: bool = True,
            jobs: int | None = 1) -> Figure4Data:
    return Figure4Data(measure_slowdowns_many(programs, cost=cost,
                                              warp_batch=warp_batch,
                                              jobs=jobs))


@dataclass
class Figure5Data:
    """Per-program (GPU-FPX, BinFPE) slowdown scatter and its claims."""

    measurements: list[ProgramSlowdowns]

    def points(self) -> list[tuple[str, float, float]]:
        return [(m.name, m.fpx_slowdown, m.binfpe_slowdown)
                for m in self.measurements]

    @property
    def ratios(self) -> list[float]:
        return [m.speedup_over_binfpe for m in self.measurements]

    @property
    def geomean_speedup(self) -> float:
        return geomean(self.ratios)

    @property
    def programs_100x_faster(self) -> int:
        return sum(1 for r in self.ratios if r >= 100.0)

    @property
    def programs_1000x_faster(self) -> int:
        return sum(1 for r in self.ratios if r >= 1000.0)

    def below_diagonal(self) -> list[str]:
        """Programs where GPU-FPX is *slower* (the Figure 5 outliers)."""
        return [m.name for m in self.measurements
                if m.speedup_over_binfpe < 1.0]

    def hangs_resolved(self) -> list[str]:
        """Programs BinFPE hangs on but GPU-FPX completes."""
        return [m.name for m in self.measurements
                if m.binfpe.hung and not m.fpx.hung]

    def render(self) -> str:
        lines = [f"Figure 5 — log(slowdown) scatter over "
                 f"{len(self.measurements)} programs",
                 f"geomean speedup of GPU-FPX over BinFPE: "
                 f"{self.geomean_speedup:.1f}x (paper: 12-16x)",
                 f">=100x faster: {self.programs_100x_faster} programs "
                 "(paper: 49)",
                 f">=1000x faster: {self.programs_1000x_faster} programs "
                 "(paper: 4)",
                 f"below-diagonal outliers: {self.below_diagonal()} "
                 "(paper: simpleAWBarrier, reductionMultiBlockCG, "
                 "conjugateGradientMultiBlockCG)",
                 f"BinFPE hangs resolved by GPU-FPX: "
                 f"{self.hangs_resolved()}"]
        return "\n".join(lines)


def figure5(programs: list[Program], *, cost: CostModel | None = None,
            warp_batch: bool = True,
            jobs: int | None = 1) -> Figure5Data:
    return Figure5Data(measure_slowdowns_many(programs, cost=cost,
                                              warp_batch=warp_batch,
                                              jobs=jobs))


def _figure6_base_unit(program: Program, options, cost, warp_batch: bool):
    """Module-level (picklable) baseline cell of the Figure 6 grid."""
    from .runner import run_baseline
    return run_baseline(program, options=options, cost=cost,
                        warp_batch=warp_batch)


def _figure6_cell_unit(program: Program, k: int, options, cost,
                       warp_batch: bool):
    """Module-level (picklable) detector cell of the Figure 6 grid."""
    return run_detector(program, options=options, cost=cost,
                        warp_batch=warp_batch,
                        config=DetectorConfig(freq_redn_factor=k))


@dataclass
class Figure6Data:
    """FREQ-REDN-FACTOR sweep: geomean slowdown + total exceptions."""

    factors: list[int]
    geomean_slowdowns: list[float] = field(default_factory=list)
    total_exceptions: list[int] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Figure 6 — FREQ-REDN-FACTOR impact",
                 f"{'k':>6} | {'geomean slowdown':>17} | "
                 f"{'total exceptions':>17}"]
        for k, s, e in zip(self.factors, self.geomean_slowdowns,
                           self.total_exceptions):
            label = "off" if k == 0 else str(k)
            lines.append(f"{label:>6} | {s:>16.2f}x | {e:>17}")
        return "\n".join(lines)


def figure6(programs: list[Program], *,
            factors: tuple[int, ...] = (0, 4, 16, 64, 256),
            options: CompileOptions | None = None,
            cost: CostModel | None = None,
            warp_batch: bool = True,
            jobs: int | None = 1) -> Figure6Data:
    """Sweep the undersampling factor over a program set.

    ``k = 0`` disables undersampling (every invocation instrumented).
    The slowdown bars fall as k grows (JIT amortised) while the exception
    line dips only slightly (invocation-transient sites are missed).
    The (program, k) grid is one flat sweep: baselines first, then every
    detector cell, reduced in (k, program) order.
    """
    import functools

    from .parallel import SweepUnit, run_sweep

    units = [SweepUnit(f"figure6/base/{p.name}", functools.partial(
        _figure6_base_unit, p, options, cost, warp_batch))
        for p in programs]
    units += [SweepUnit(f"figure6/k{k}/{p.name}", functools.partial(
        _figure6_cell_unit, p, k, options, cost, warp_batch))
        for k in factors for p in programs]
    values = run_sweep(units, jobs=jobs).values_strict()
    baselines = dict(zip((p.name for p in programs), values))

    data = Figure6Data(list(factors))
    cells = iter(values[len(programs):])
    for k in factors:
        slowdowns = []
        exceptions = 0
        for p in programs:
            report, stats = next(cells)
            slowdowns.append(stats.slowdown(baselines[p.name]))
            exceptions += report.total()
        data.geomean_slowdowns.append(geomean(slowdowns))
        data.total_exceptions.append(exceptions)
    return data


@dataclass
class InputSweepData:
    """Input-space sampling sweep (the paper's §6 direction): how many
    sampled inputs trigger exceptions, and which table cells they hit."""

    probes: int
    deduped: int
    triggering: int
    #: cell name -> number of triggering inputs exhibiting it
    cells: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"Input sweep — {self.probes} sampled inputs "
                 f"({self.deduped} duplicates skipped), "
                 f"{self.triggering} triggering",
                 f"{'cell':>12} | {'triggering inputs':>17}"]
        for cell in sorted(self.cells):
            lines.append(f"{cell:>12} | {self.cells[cell]:>17}")
        return "\n".join(lines)


def input_sweep(compiled, ranges, *,
                fixed_params: dict | None = None,
                samples: int = 64, seed: int = 0,
                megabatch: bool = True) -> InputSweepData:
    """Sample a kernel's scalar-input space under the detector.

    The exploration candidates run as ONE launch-batched pass
    (:meth:`~repro.api.Session.run_batch` via
    :meth:`~repro.fpx.stress.InputStressTester.probe_many`) instead of
    N serial probe launches; ``megabatch=False`` keeps the serial
    member loop for A/B runs.  Unlike
    :meth:`~repro.fpx.stress.InputStressTester.run` there is no
    exploitation phase — this is the flat sampling figure.
    """
    from ..fpx.stress import InputStressTester

    tester = InputStressTester(compiled, ranges,
                               fixed_params=fixed_params, seed=seed,
                               megabatch=megabatch)
    candidates, deduped = tester.explore(samples)
    cells: dict[str, int] = {}
    triggering = 0
    for trigger in tester.probe_many(candidates):
        if trigger is None:
            continue
        triggering += 1
        for cell in trigger.records:
            cells[cell] = cells.get(cell, 0) + 1
    return InputSweepData(probes=len(candidates), deduped=deduped,
                          triggering=triggering, cells=cells)
