"""Table 5 — exception-detection decrease at FREQ-REDN-FACTOR 64.

Regenerates the myocyte / Sw4lite (64) / Laghos rows: the counts that
survive when only one in 64 invocations is instrumented, asserting exact
agreement with the paper (reading the myocyte FP32 INF cell as 76 -> 53;
see EXPERIMENTS.md).  ``results/table5.txt`` is written by
``scripts/regenerate_all.py``."""

from __future__ import annotations

import pytest

from repro.harness.tables import table5
from repro.workloads import TABLE5_K64, program_by_name
from conftest import save_artifact


@pytest.mark.benchmark(group="table5")
def test_table5_sampling_loss(benchmark):
    programs = [program_by_name(n) for n in TABLE5_K64]
    result = benchmark.pedantic(lambda: table5(programs), rounds=1,
                                iterations=1)
    print("\n" + result.render())
    assert result.all_match, result.mismatches


@pytest.mark.benchmark(group="table5")
def test_all_programs_still_flagged(benchmark, results_dir):
    """'the number of programs with exceptions remains the same,
    ensuring that all programs can be diagnosed later if necessary.'"""
    from repro.fpx import DetectorConfig
    from repro.harness.runner import run_detector
    from repro.workloads import exception_programs

    def survivors():
        count = 0
        for p in exception_programs():
            report, _ = run_detector(
                p, config=DetectorConfig(freq_redn_factor=64))
            if report.has_exceptions():
                count += 1
        return count

    count = benchmark.pedantic(survivors, rounds=1, iterations=1)
    assert count == 26, \
        "undersampling must not lose any exception-bearing *program*"
    save_artifact(results_dir, "table5_programs.txt",
                  f"programs still flagged at k=64: {count}/26")
