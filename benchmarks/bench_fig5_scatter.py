"""Figure 5 — per-program log(slowdown) scatter: BinFPE vs GPU-FPX.

Asserts the paper's Figure 5 claims:

- 49 programs where GPU-FPX is two orders of magnitude faster;
- four programs three orders of magnitude faster (the BinFPE hangs);
- a small set of below-diagonal outliers (simpleAWBarrier,
  reductionMultiBlockCG, conjugateGradientMultiBlockCG) where the GT
  allocation makes GPU-FPX a net loss on nearly-FP-free programs;
- the abstract's 16x / §4.4's 12x geometric-mean speedup (we assert the
  12-17x band).

``results/figure5.txt`` and ``results/figure5_points.tsv`` are written
by ``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.harness import figure5
from conftest import bench_jobs

PAPER_OUTLIERS = {"simpleAWBarrier", "reductionMultiBlockCG",
                  "conjugateGradientMultiBlockCG"}


@pytest.mark.benchmark(group="figure5")
def test_figure5_scatter(benchmark, programs):
    data = benchmark.pedantic(
        lambda: figure5(programs, jobs=bench_jobs()),
        rounds=1, iterations=1)
    print("\n" + data.render())

    assert data.programs_100x_faster == 49, \
        "paper: 49 programs two orders of magnitude faster"
    assert data.programs_1000x_faster == 4, \
        "paper: four programs three orders of magnitude faster"
    assert set(data.below_diagonal()) == PAPER_OUTLIERS, \
        "paper names exactly three below-diagonal outliers"
    assert 12.0 <= data.geomean_speedup <= 17.0, \
        f"paper: 12-16x mean speedup (measured " \
        f"{data.geomean_speedup:.1f}x)"
    assert len(data.hangs_resolved()) == 4, \
        "GPU-FPX terminates on the benchmarks BinFPE hangs on"
