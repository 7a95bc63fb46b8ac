"""Paper-table regenerators: Tables 4, 5, 6 and 7, paper vs measured.

Tables 4, 5 and 6 are plans: the
:func:`~repro.harness.runner.evaluate_many` requests they need and a
pure function from their records to the table, so
:func:`~repro.harness.export.run_full_evaluation` folds them into the
figures' sessions.  Each regenerator takes ``jobs``: ``1`` (default)
runs serially in process, ``N > 1`` fans the per-program runs out
across worker processes (:mod:`repro.harness.parallel`) and reassembles
rows in program order, so the rendered table is byte-identical either
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler import CompileOptions
from ..fpx import DetectorConfig
from ..fpx.diagnosis import Diagnosis, diagnose
from ..workloads.base import Program
from ..workloads.paper_data import (
    TABLE4,
    TABLE5_K64,
    TABLE6_FASTMATH,
    TABLE7,
    zero_filled,
)
from ..workloads.repairs import strategy_for
from .runner import measured_counts, run_plans

__all__ = ["TableRow", "TableResult", "table4_plan", "table4",
           "table5_plan", "table5", "table6_plan", "table6", "table7"]

_CELLS = [f"{fmt}.{kind}" for fmt in ("FP64", "FP32")
          for kind in ("NAN", "INF", "SUB", "DIV0")]


@dataclass
class TableRow:
    program: str
    paper: dict[str, int]
    measured: dict[str, int]

    @property
    def matches(self) -> bool:
        return zero_filled(self.paper) == zero_filled(self.measured)


@dataclass
class TableResult:
    title: str
    rows: list[TableRow] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(r.matches for r in self.rows)

    @property
    def mismatches(self) -> list[str]:
        return [r.program for r in self.rows if not r.matches]

    def render(self) -> str:
        lines = [self.title]
        header = (f"{'program':<28} "
                  + " ".join(f"{c.split('.')[1]:>5}" for c in _CELLS)
                  + "   ok")
        lines.append(f"{'':<28} {'FP64':^23} {'FP32':^23}")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            got = zero_filled(row.measured)
            want = zero_filled(row.paper)
            cells = []
            for c in _CELLS:
                cell = str(got[c])
                if got[c] != want[c]:
                    cell = f"{got[c]}!{want[c]}"
                cells.append(f"{cell:>5}")
            lines.append(f"{row.program:<28} " + " ".join(cells)
                         + ("   yes" if row.matches else "   NO"))
        lines.append(f"match: {sum(r.matches for r in self.rows)}/"
                     f"{len(self.rows)} rows identical to the paper")
        return "\n".join(lines)


def _counting_plan(title: str, programs: list[Program],
                   expected: dict[str, dict[str, int]],
                   config: DetectorConfig,
                   options: CompileOptions | None = None):
    """One ``config`` detector per program, its counts as table rows."""
    def finish(records: list[dict]) -> TableResult:
        return TableResult(title, [
            TableRow(program=p.name, paper=expected.get(p.name, {}),
                     measured=measured_counts(r[config].report))
            for p, r in zip(programs, records)])
    return [(p, options, (config,)) for p in programs], finish


def table4_plan(programs: list[Program]):
    return _counting_plan(
        "Table 4 — exceptions detected by GPU-FPX (precise build)",
        [p for p in programs if p.expected], TABLE4, DetectorConfig())


def table4(programs: list[Program], *, warp_batch: bool = True,
           jobs: int | None = 1) -> TableResult:
    """Table 4: exceptions detected on the shipped inputs."""
    return run_plans(table4_plan(programs), warp_batch=warp_batch,
                     jobs=jobs)[0]


def table5_plan(programs: list[Program]):
    return _counting_plan(
        "Table 5 — detection at FREQ-REDN-FACTOR 64",
        [p for p in programs if p.name in TABLE5_K64], TABLE5_K64,
        DetectorConfig(freq_redn_factor=64))


def table5(programs: list[Program], *, warp_batch: bool = True,
           jobs: int | None = 1) -> TableResult:
    """Table 5: detection decrease at FREQ-REDN-FACTOR = 64."""
    return run_plans(table5_plan(programs), warp_batch=warp_batch,
                     jobs=jobs)[0]


def table6_plan(programs: list[Program]):
    return _counting_plan(
        "Table 6 — exceptions with --use_fast_math",
        [p for p in programs if p.name in TABLE6_FASTMATH],
        TABLE6_FASTMATH, DetectorConfig(), CompileOptions.fast_math())


def table6(programs: list[Program], *, warp_batch: bool = True,
           jobs: int | None = 1) -> TableResult:
    """Table 6: the --use_fast_math study (the checkmark rows)."""
    return run_plans(table6_plan(programs), warp_batch=warp_batch,
                     jobs=jobs)[0]


@dataclass
class Table7Result:
    diagnoses: list[Diagnosis] = field(default_factory=list)
    expected: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def all_match(self) -> bool:
        return all(d.row() == self.expected.get(d.program.replace(
            " (64)", ""), d.row()) for d in self.diagnoses)

    def render(self) -> str:
        lines = ["Table 7 — diagnosis and repair outcomes",
                 f"{'program':<20} {'diagnosed':>10} {'matters':>9} "
                 f"{'fixed':>7}   evidence"]
        for d in self.diagnoses:
            lines.append(f"{d.program:<20} {d.diagnosed:>10} "
                         f"{d.matters:>9} {d.fixed:>7}   "
                         f"{d.notes[0] if d.notes else ''}")
        return "\n".join(lines)


def _table7_unit(paper_name: str, program: Program) -> Diagnosis:
    """Module-level (picklable) sweep unit for one diagnosis row."""
    diag = diagnose(program, strategy_for(paper_name))
    diag.program = paper_name
    return diag


def table7(programs_by_name: dict[str, Program], *,
           jobs: int | None = 1) -> Table7Result:
    """Table 7: run diagnosis for every severe-exception program."""
    import functools

    from .parallel import SweepUnit, run_sweep

    units = []
    for name in TABLE7:
        actual = "Sw4lite (64)" if name == "Sw4lite" else name
        units.append(SweepUnit(f"table7/{name}", functools.partial(
            _table7_unit, name, programs_by_name[actual])))
    result = Table7Result(expected=TABLE7)
    result.diagnoses = run_sweep(units, jobs=jobs).values_strict()
    return result
