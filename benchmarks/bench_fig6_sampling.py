"""Figure 6 — FREQ-REDN-FACTOR impact on performance and detection.

Sweeps the undersampling factor over the programs where JIT-per-launch
matters (repeated-kernel programs plus the Table 5 transient programs),
asserting:

- geomean slowdown falls monotonically with k (the blue bars);
- total detected exceptions decrease only slightly (the red line);
- the CuMF-Movielens anecdote: an order-of-magnitude time reduction at
  k=256 with no exceptions lost.

``results/figure6.txt`` is written by ``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.fpx import DetectorConfig
from repro.harness import figure6, run_baseline, run_detector
from repro.harness.figures import FIGURE6_FACTORS, FIGURE6_PROGRAMS
from repro.workloads import program_by_name
from conftest import save_artifact


@pytest.mark.benchmark(group="figure6")
def test_figure6_sweep(benchmark):
    progs = [program_by_name(n) for n in FIGURE6_PROGRAMS]
    data = benchmark.pedantic(
        lambda: figure6(progs, factors=FIGURE6_FACTORS), rounds=1,
        iterations=1)
    print("\n" + data.render())

    s = data.geomean_slowdowns
    assert all(s[i] >= s[i + 1] * 0.999 for i in range(len(s) - 1)), \
        "slowdown bars fall as k grows"
    assert s[0] / s[-1] > 5, "sampling wins at least 5x on this set"
    e = data.total_exceptions
    assert all(e[i] >= e[i + 1] for i in range(len(e) - 1)), \
        "exception line never increases with k"
    assert e[-1] >= 0.8 * e[0], \
        "only a small fraction of records is lost even at k=256"


@pytest.mark.benchmark(group="figure6")
def test_movielens_anecdote(benchmark, results_dir):
    """'By setting the freq-redn-factor to 256, we were able to evaluate
    this program in just 5 minutes, compared to 70 minutes without our
    sampling technique' — a ~14x reduction, with no exceptions lost."""
    prog = program_by_name("CuMF-Movielens")

    def run():
        base = run_baseline(prog)
        full_rep, full = run_detector(prog)
        samp_rep, samp = run_detector(
            prog, config=DetectorConfig(freq_redn_factor=256))
        return base, full_rep, full, samp_rep, samp

    base, full_rep, full, samp_rep, samp = benchmark.pedantic(
        run, rounds=1, iterations=1)
    reduction = full.total_cycles / samp.total_cycles
    lines = [
        f"CuMF-Movielens modeled time: full instrumentation "
        f"{full.total_seconds:.2f}s, k=256 {samp.total_seconds:.2f}s, "
        f"baseline {base.total_seconds:.2f}s",
        f"reduction: {reduction:.1f}x (paper: 70 min -> 5 min = 14x)",
        f"exceptions: full {full_rep.total()} records, "
        f"k=256 {samp_rep.total()} records",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    save_artifact(results_dir, "figure6_movielens.txt", text)
    assert 8.0 <= reduction <= 25.0
    assert samp_rep.counts() == full_rep.counts(), \
        "no loss of previously detected exceptions"
