"""Workload characterisation: dynamic instruction profiles per program.

Supports the evaluation's workload story (Table 3's suites have very
different instrumentation exposure) with measured data: each program is
run under a counting tool and summarised by dynamic instruction mix, FP
density, and launch structure — the quantities that determine how much a
binary-instrumentation tool costs on it.

Also hosts the **per-pc hotspot profiler**: :func:`profile_pcs`
installs a :class:`ProfileTable` as the executor's module-level sink,
so every execution path (serial decoded loop, warp cohorts, megabatch)
accumulates modeled cycles and dynamic counts per ⟨kernel, pc,
opcode⟩ — plus statistically-sampled wall time — at one guarded global
load per instruction when off.  ``repro profile hotspots`` renders the
table; :mod:`repro.telemetry.flame` exports it as collapsed stacks.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..api import Session
from ..gpu.cost import RunStats
from ..gpu.device import Device
from ..gpu import executor as _executor
from ..nvbit.plan import InstrumentationPlan, PlannedInjection
from ..nvbit.tool import NVBitTool
from ..sass.isa import OpCategory
from ..sass.program import KernelCode
from ..gpu.executor import InjectionCtx
from ..workloads.base import Program

__all__ = [
    "ProgramProfile",
    "ProfileTable",
    "characterization_table",
    "profile_pcs",
    "profile_program",
    "render_hotspots",
]


class _CountingTool(NVBitTool):
    """Counts dynamic warp-level instructions per category."""

    name = "profiler"

    def __init__(self) -> None:
        self.category_counts: Counter = Counter()
        self.opcode_counts: Counter = Counter()

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        return InstrumentationPlan(self.name, code.name, tuple(
            PlannedInjection(instr.pc, "after", self._count,
                             args=(instr.category.value, instr.opcode))
            for instr in code))

    def _count(self, ictx: InjectionCtx) -> None:
        ictx.defer(self._tally, ictx.args)

    def _tally(self, ictx: InjectionCtx) -> None:
        category, opcode = ictx.args
        self.category_counts[category] += 1
        self.opcode_counts[opcode] += 1


@dataclass
class ProgramProfile:
    """Measured shape of one program."""

    name: str
    suite: str
    kernels: int
    launches: int
    warp_instrs: int
    thread_instrs: int
    fp_density: float                    # fp warp-instrs / warp-instrs
    category_mix: dict[str, float] = field(default_factory=dict)
    top_opcodes: list[tuple[str, int]] = field(default_factory=list)

    def row(self) -> str:
        mix = " ".join(f"{k}={v:.0%}" for k, v in
                       sorted(self.category_mix.items(),
                              key=lambda kv: -kv[1])[:4])
        return (f"{self.name:<30} {self.suite:<14} "
                f"{self.launches:>7} {self.warp_instrs:>12} "
                f"{self.fp_density:>6.1%}  {mix}")


def profile_program(program: Program, *, options=None) -> ProgramProfile:
    """Run one program under the counting tool and summarise it."""
    device = Device()
    schedule = program.build(device, options)
    tool = _CountingTool()
    session = Session(tool, device=device)
    stats: RunStats = session.run_schedule(schedule)
    total = sum(tool.category_counts.values()) or 1
    mix = {cat: count / total
           for cat, count in tool.category_counts.items()}
    fp_cats = (OpCategory.FP32_ARITH.value, OpCategory.FP64_ARITH.value,
               OpCategory.SFU.value, OpCategory.FP32_CTRL.value,
               OpCategory.FP16_ARITH.value)
    fp_density = sum(mix.get(c, 0.0) for c in fp_cats)
    return ProgramProfile(
        name=program.name,
        suite=program.suite,
        kernels=len({spec.code.name for spec in schedule}),
        launches=stats.launches,
        warp_instrs=stats.warp_instrs,
        thread_instrs=stats.thread_instrs,
        fp_density=fp_density,
        category_mix=mix,
        top_opcodes=tool.opcode_counts.most_common(5),
    )


def characterization_table(programs: list[Program]) -> str:
    """Render a workload-characterisation table."""
    lines = ["Workload characterisation (dynamic, simulated slice)",
             f"{'program':<30} {'suite':<14} {'launch':>7} "
             f"{'warp-instr':>12} {'fp%':>6}  mix"]
    for program in programs:
        lines.append(profile_program(program).row())
    return "\n".join(lines)


# -- the per-pc hotspot profiler -------------------------------------------


class ProfileTable:
    """Per-⟨kernel, pc⟩ accumulation fed by the executor's hot loops.

    Three cost tiers:

    - **modeled cycles** and **dynamic counts** are exact — every
      executed warp-instruction (or cohort of ``n``) adds its charge;
    - **wall time** is statistical: every ``sample_every``-th add reads
      ``perf_counter`` and attributes the whole inter-sample delta to
      the key that happened to be current — cheap, and converging on
      the true distribution for hot pcs;
    - **exception counts** arrive from the FPX detector (one per unique
      exception record), so the hotspot listing shows *where the
      exceptions live* next to where the cycles go.
    """

    def __init__(self, *, sample_every: int = 64,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.sample_every = max(1, int(sample_every))
        #: exact modeled cycles per (kernel, pc)
        self.cycles: dict[tuple[str, int], float] = {}
        #: exact dynamic warp-instruction counts per (kernel, pc)
        self.counts: dict[tuple[str, int], int] = {}
        #: first-seen opcode per (kernel, pc)
        self.opcodes: dict[tuple[str, int], str] = {}
        #: sampled wall seconds per (kernel, pc)
        self.wall: dict[tuple[str, int], float] = {}
        #: unique exception records per (kernel, pc)
        self.exceptions: Counter = Counter()
        self._adds = 0
        self._clock = clock
        self._last = clock()
        self._codes: dict[str, KernelCode] = {}

    # -- the executor-facing feed (hot; keep allocation-free) -----------

    def add(self, kernel: str, pc: int, opcode: str, cycles: float,
            n: int = 1) -> None:
        key = (kernel, pc)
        self.cycles[key] = self.cycles.get(key, 0.0) + cycles
        self.counts[key] = self.counts.get(key, 0) + n
        if key not in self.opcodes:
            self.opcodes[key] = opcode
        self._adds += 1
        if self._adds % self.sample_every == 0:
            now = self._clock()
            self.wall[key] = self.wall.get(key, 0.0) + (now - self._last)
            self._last = now

    def register_code(self, code: KernelCode) -> None:
        """Remember a launched kernel's code for basic-block labeling."""
        self._codes.setdefault(code.name, code)

    def add_exception(self, kernel: str, pc: int) -> None:
        self.exceptions[(kernel, pc)] += 1

    # -- derived views ---------------------------------------------------

    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    def _leaders(self, kernel: str) -> list[int]:
        """Basic-block leader pcs, from resolved branch targets."""
        code = self._codes.get(kernel)
        if code is None:
            return [0]
        leaders = {0}
        for instr in code.instructions:
            if instr.target is not None:
                leaders.add(code.target_pc(instr.pc))
                leaders.add(instr.pc + 1)
        return sorted(pc for pc in leaders if pc < len(code.instructions))

    def block_of(self, kernel: str, pc: int) -> int:
        """Index of the basic block containing ``pc`` (0 when the
        kernel's code was never registered)."""
        leaders = self._leaders(kernel)
        lo = 0
        for i, leader in enumerate(leaders):
            if leader <= pc:
                lo = i
            else:
                break
        return lo

    def hotspots(self, top: int | None = None
                 ) -> list[tuple[str, int, str, int, float, float, int]]:
        """Rows ⟨kernel, pc, opcode, count, cycles, wall, exceptions⟩,
        hottest (by modeled cycles) first."""
        rows = [
            (kernel, pc, self.opcodes.get((kernel, pc), "?"),
             self.counts.get((kernel, pc), 0), cycles,
             self.wall.get((kernel, pc), 0.0),
             self.exceptions.get((kernel, pc), 0))
            for (kernel, pc), cycles in self.cycles.items()
        ]
        rows.sort(key=lambda r: (-r[4], r[0], r[1]))
        return rows[:top] if top is not None else rows


def render_hotspots(table: ProfileTable, *, top: int = 10) -> str:
    """The ``repro profile hotspots`` listing: top-K pcs by cycles."""
    total = table.total_cycles() or 1.0
    lines = [
        "Hotspots (modeled cycles per pc; wall is sampled)",
        f"{'kernel':<30} {'pc':>5} {'opcode':<10} {'count':>10} "
        f"{'cycles':>12} {'cyc%':>6} {'wall_ms':>8} {'excep':>6}",
    ]
    for kernel, pc, opcode, count, cycles, wall, excep in \
            table.hotspots(top):
        lines.append(
            f"{kernel:<30} {pc:>5} {opcode:<10} {count:>10} "
            f"{cycles:>12.0f} {cycles / total:>6.1%} "
            f"{wall * 1e3:>8.2f} {excep:>6}")
    if not table.cycles:
        lines.append("(no samples: was --profile-pcs on?)")
    return "\n".join(lines)


@contextlib.contextmanager
def profile_pcs(table: ProfileTable | None = None, *,
                sample_every: int = 64) -> Iterator[ProfileTable]:
    """Scope with the hotspot profiler installed as the executor sink.

    Nesting restores the previous sink on exit, so an outer profile
    survives an inner one.
    """
    if table is None:
        table = ProfileTable(sample_every=sample_every)
    previous = _executor._PROFILE
    _executor.set_profile_sink(table)
    try:
        yield table
    finally:
        _executor.set_profile_sink(previous)
