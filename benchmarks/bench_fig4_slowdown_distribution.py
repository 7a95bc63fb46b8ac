"""Figure 4 — slowdown distribution: BinFPE vs GPU-FPX w/o GT vs w/ GT.

Runs all 151 programs under the three tool configurations plus an
uninstrumented baseline, buckets the modeled slowdowns, and asserts the
paper's distribution claims:

- over 60% of programs below 10x slowdown with GPU-FPX, vs ~40% with
  BinFPE;
- the GT phase resolves the hanging cases of the w/o-GT phase on
  exception-heavy programs (deduplication avoids channel congestion).

``results/figure4.txt`` is written by ``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.harness import figure4, fraction_below
from conftest import bench_jobs, save_artifact


@pytest.fixture(scope="module")
def fig4(programs):
    return figure4(programs)


@pytest.mark.benchmark(group="figure4")
def test_figure4_distribution(benchmark, programs):
    data = benchmark.pedantic(
        lambda: figure4(programs, jobs=bench_jobs()),
        rounds=1, iterations=1)
    print("\n" + data.render())

    fpx_under_10 = fraction_below(data.fpx, 10.0)
    binfpe_under_10 = fraction_below(data.binfpe, 10.0)
    assert fpx_under_10 > 0.60, \
        f"paper: over 60% of programs under 10x with GPU-FPX " \
        f"(measured {fpx_under_10:.0%})"
    assert 0.30 <= binfpe_under_10 <= 0.50, \
        f"paper: only ~40% under 10x with BinFPE " \
        f"(measured {binfpe_under_10:.0%})"
    assert fpx_under_10 > binfpe_under_10


@pytest.mark.benchmark(group="figure4")
def test_gt_resolves_congestion_hangs(benchmark, results_dir):
    """'the addition of the global table ... resolves the hanging issues
    in previous cases — deduplication avoids communication-related
    congestion.'  We demonstrate the mechanism on the exception-heavy
    myocyte: w/o GT ships per-occurrence records (orders of magnitude
    more channel traffic) while GT sends each record once."""
    from repro.fpx import DetectorConfig
    from repro.harness.runner import run_detector
    from repro.workloads import program_by_name

    prog = program_by_name("myocyte")

    def measure():
        _, no_gt = run_detector(prog, config=DetectorConfig(use_gt=False))
        _, with_gt = run_detector(prog, config=DetectorConfig(use_gt=True))
        return no_gt, with_gt

    no_gt, with_gt = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert no_gt.channel_messages > 100 * with_gt.channel_messages
    save_artifact(
        results_dir, "figure4_gt_effect.txt",
        f"myocyte channel messages: w/o GT {no_gt.channel_messages}, "
        f"w/ GT {with_gt.channel_messages}")
