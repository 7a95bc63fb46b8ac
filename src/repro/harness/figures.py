"""Data generators for the paper's figures (4, 5 and 6).

Each figure is a plan: the :func:`~repro.harness.runner.evaluate_many`
requests it needs and a pure function from their records to its data,
so :func:`~repro.harness.export.run_full_evaluation` runs one session
per program for all of them.  Each generator takes ``jobs``: ``1``
(default) runs in-process serially, ``N > 1`` shards the per-program
runs across worker processes via :mod:`repro.harness.parallel` and
reduces in program order, so renders are byte-identical across job
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fpx import DetectorConfig
from ..workloads.base import Program
from .runner import FIG45, ProgramSlowdowns, _slowdowns, run_plans
from .stats import BUCKETS, bucket_label, fraction_below, geomean, \
    histogram_buckets

__all__ = ["slowdowns_plan", "Figure4Data", "figure4", "Figure5Data",
           "figure5", "FIGURE6_PROGRAMS", "FIGURE6_FACTORS", "Figure6Data",
           "figure6_plan", "figure6"]

#: The paper's Figure 6 set: repeated-kernel programs plus the Table 5
#: transient programs, where JIT-per-launch matters.
FIGURE6_PROGRAMS = ("CuMF-Movielens", "SRU-Example", "myocyte", "backprop",
                    "concurrentKernels", "simpleStreams", "Laghos",
                    "Sw4lite (64)")
FIGURE6_FACTORS = (0, 4, 16, 64, 256)


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


def slowdowns_plan(programs: list[Program]):
    """Figures 4 and 5 plot the same measurements: one
    :data:`~repro.harness.runner.FIG45` session per program."""
    return [(p, None, FIG45) for p in programs], lambda records: [
        _slowdowns(p, r) for p, r in zip(programs, records)]


def figure4(programs: list[Program], *, warp_batch: bool = True,
            jobs: int | None = 1) -> Figure4Data:
    return Figure4Data(run_plans(slowdowns_plan(programs),
                                 warp_batch=warp_batch, jobs=jobs)[0])


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


def figure5(programs: list[Program], *, warp_batch: bool = True,
            jobs: int | None = 1) -> Figure5Data:
    return Figure5Data(run_plans(slowdowns_plan(programs),
                                 warp_batch=warp_batch, jobs=jobs)[0])


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


def figure6_plan(programs: list[Program], factors: tuple[int, ...]):
    """The baseline and one detector per factor, in one session per
    program; ``k = 0`` (undersampling off) is the GT detector."""
    configs = [DetectorConfig(freq_redn_factor=k) for k in factors]

    def finish(records: list[dict]) -> Figure6Data:
        data = Figure6Data(list(factors))
        for config in configs:
            data.geomean_slowdowns.append(geomean(
                [r[config].stats.slowdown(r[None].stats) for r in records]))
            data.total_exceptions.append(
                sum(r[config].report.total() for r in records))
        return data
    return [(p, None, (None, *configs)) for p in programs], finish


def figure6(programs: list[Program], *,
            factors: tuple[int, ...] = FIGURE6_FACTORS,
            warp_batch: bool = True,
            jobs: int | None = 1) -> Figure6Data:
    """Sweep the undersampling factor over a program set.

    ``k = 0`` disables undersampling (every invocation instrumented).
    The slowdown bars fall as k grows (JIT amortised) while the exception
    line dips only slightly (invocation-transient sites are missed).
    """
    return run_plans(figure6_plan(programs, factors), warp_batch=warp_batch,
                     jobs=jobs)[0]
