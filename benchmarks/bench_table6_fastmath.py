"""Table 6 — exceptions with and without ``--use_fast_math``.

Compiles the eight studied programs both ways and regenerates both table
halves, asserting exact agreement and the §4.4 observations:

- all FP32 subnormals vanish (denormal flushing);
- myocyte gains six DIV0s right where eight subnormals disappeared
  (flushed values reaching fast divisions);
- myocyte's FP64 subnormals go 2 -> 4 (FMA contraction residuals).

``results/table6.txt`` is written by ``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions
from repro.harness.runner import run_detector
from repro.harness.tables import table4, table6
from repro.workloads import TABLE6_FASTMATH, program_by_name
from conftest import save_artifact


@pytest.mark.benchmark(group="table6")
def test_table6_fastmath(benchmark):
    programs = [program_by_name(n) for n in TABLE6_FASTMATH]
    result = benchmark.pedantic(lambda: table6(programs), rounds=1,
                                iterations=1)
    # the x-rows of Table 6 are the Table 4 rows for the same programs
    precise = table4(programs)
    print("\n" + precise.render() + "\n\n" + result.render())
    assert precise.all_match, precise.mismatches
    assert result.all_match, result.mismatches


@pytest.mark.benchmark(group="table6")
def test_fastmath_observations(benchmark, results_dir):
    prog = program_by_name("myocyte")

    def measure():
        p, _ = run_detector(prog)
        f, _ = run_detector(prog, options=CompileOptions.fast_math())
        return p.counts(), f.counts()

    precise, fast = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = []
    # (1) denormal flushing: FP32 SUB 8 -> 0
    assert precise["FP32.SUB"] == 8 and fast["FP32.SUB"] == 0
    lines.append("FP32 subnormals flushed: 8 -> 0")
    # (2) six new DIV0 after the flush (kernel_ecc_3.cu:776/777 story)
    assert fast["FP32.DIV0"] - precise["FP32.DIV0"] == 6
    lines.append("six new FP32 DIV0s where flushed values reach "
                 "fast divisions")
    # (3) FMA contraction creates FP64 subnormal residuals: 2 -> 4
    assert precise["FP64.SUB"] == 2 and fast["FP64.SUB"] == 4
    lines.append("FP64 SUB 2 -> 4 via DFMA contraction residuals")
    # (4) FP64 rows otherwise unchanged (fast-math is FP32-only)
    for cell in ("FP64.NAN", "FP64.INF", "FP64.DIV0"):
        assert precise[cell] == fast[cell]
    lines.append("FP64 NAN/INF/DIV0 unchanged (fast-math is FP32-only)")
    save_artifact(results_dir, "table6_observations.txt",
                  "\n".join(lines))
