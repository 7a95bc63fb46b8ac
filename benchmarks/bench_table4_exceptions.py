"""Table 4 — exceptions detected across the 151-program set.

Regenerates every row of Table 4 (FP64/FP32 x NAN/INF/SUB/DIV0 per
program) with the GPU-FPX detector on the shipped inputs, and asserts
exact agreement with the paper.  ``results/table4.txt`` is written by
``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.harness.tables import table4
from conftest import save_artifact


@pytest.mark.benchmark(group="table4")
def test_table4_exception_detection(benchmark, table4_programs):
    result = benchmark.pedantic(
        lambda: table4(table4_programs), rounds=1, iterations=1)
    print("\n" + result.render())
    assert len(result.rows) == 26, "Table 4 has 26 programs"
    assert result.all_match, f"rows differing from paper: " \
                             f"{result.mismatches}"


@pytest.mark.benchmark(group="table4")
def test_detection_summary_claims(benchmark, table4_programs, results_dir):
    """The paper's §4.1 headline: 26 exception-bearing programs; the
    severe (red-font) rows carry NaN/INF/DIV0."""
    from repro.harness.runner import run_detector

    def collect():
        reports = {}
        for p in table4_programs:
            reports[p.name], _ = run_detector(p)
        return reports

    reports = benchmark.pedantic(collect, rounds=1, iterations=1)
    with_exceptions = [n for n, r in reports.items() if r.has_exceptions()]
    severe = [n for n, r in reports.items() if r.has_severe()]
    assert len(with_exceptions) == 26
    assert len(severe) == 12  # Table 4's red rows (Sw4lite counted twice)
    lines = [f"programs with exceptions: {len(with_exceptions)}",
             f"programs with severe (NaN/INF/DIV0) exceptions: "
             f"{len(severe)}: {sorted(severe)}"]
    save_artifact(results_dir, "table4_summary.txt", "\n".join(lines))
