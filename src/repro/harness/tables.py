"""Paper-table regenerators: Tables 4, 5, 6 and 7, paper vs measured.

Each regenerator takes ``jobs``: ``1`` (default) runs serially in
process, ``N > 1`` fans the per-program runs out across worker
processes (:mod:`repro.harness.parallel`) and reassembles rows in
program order, so the rendered table is byte-identical either way.
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
from .runner import measured_counts, run_detector

__all__ = ["TableRow", "TableResult", "table4", "table5", "table6",
           "table7"]

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


def _detector_unit(program: Program, options, config, decode_cache: bool,
                   warp_batch: bool):
    """Module-level (picklable) sweep unit for one table row."""
    return run_detector(program, options=options, config=config,
                        decode_cache=decode_cache,
                        warp_batch=warp_batch)[0]


def _counting_table(title: str, programs: list[Program],
                    expected: dict[str, dict[str, int]], *,
                    options: CompileOptions | None = None,
                    config: DetectorConfig | None = None,
                    decode_cache: bool = True,
                    warp_batch: bool = True,
                    jobs: int | None = 1) -> TableResult:
    import functools

    from .parallel import SweepUnit, run_sweep

    units = [SweepUnit(f"table/{p.name}",
                       functools.partial(_detector_unit, p, options, config,
                                         decode_cache, warp_batch))
             for p in programs]
    reports = run_sweep(units, jobs=jobs).values_strict()
    result = TableResult(title)
    for program, report in zip(programs, reports):
        result.rows.append(TableRow(
            program=program.name,
            paper=expected.get(program.name, {}),
            measured=measured_counts(report)))
    return result


def table4(programs: list[Program], *, decode_cache: bool = True,
           warp_batch: bool = True, jobs: int | None = 1) -> TableResult:
    """Table 4: exceptions detected on the shipped inputs."""
    with_exceptions = [p for p in programs if p.expected]
    return _counting_table(
        "Table 4 — exceptions detected by GPU-FPX (precise build)",
        with_exceptions, TABLE4, decode_cache=decode_cache,
        warp_batch=warp_batch, jobs=jobs)


def table5(programs: list[Program], *, decode_cache: bool = True,
           warp_batch: bool = True, jobs: int | None = 1) -> TableResult:
    """Table 5: detection decrease at FREQ-REDN-FACTOR = 64."""
    targets = [p for p in programs if p.name in TABLE5_K64]
    return _counting_table(
        "Table 5 — detection at FREQ-REDN-FACTOR 64",
        targets, TABLE5_K64,
        config=DetectorConfig(freq_redn_factor=64),
        decode_cache=decode_cache, warp_batch=warp_batch, jobs=jobs)


def table6(programs: list[Program], *, decode_cache: bool = True,
           warp_batch: bool = True, jobs: int | None = 1) -> TableResult:
    """Table 6: the --use_fast_math study (the checkmark rows)."""
    targets = [p for p in programs if p.name in TABLE6_FASTMATH]
    return _counting_table(
        "Table 6 — exceptions with --use_fast_math",
        targets, TABLE6_FASTMATH,
        options=CompileOptions.fast_math(),
        decode_cache=decode_cache, warp_batch=warp_batch, jobs=jobs)


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
