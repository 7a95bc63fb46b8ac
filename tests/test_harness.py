"""Harness tests: slowdown measurement, statistics, figure generators."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.harness import (
    figure6,
    fraction_below,
    geomean,
    histogram_buckets,
    measure_slowdowns,
    run_baseline,
    run_detector,
)
from repro.harness.stats import BUCKETS, bucket_label
from repro.telemetry import metrics_snapshot, names, telemetry_session
from repro.workloads import program_by_name


class TestStats:
    def test_geomean_basic(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_geomean_empty_returns_nan(self, caplog):
        """Empty/zero data degrades to NaN with a warning, not a raise."""
        with caplog.at_level("WARNING", logger="repro.harness.stats"):
            assert math.isnan(geomean([]))
            assert math.isnan(geomean([0.0, -3.0]))
        assert any("geomean" in r.message for r in caplog.records)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                    max_size=50))
    def test_geomean_bounded_by_min_max(self, vals):
        g = geomean(vals)
        assert min(vals) * 0.999 <= g <= max(vals) * 1.001

    @given(st.lists(st.floats(min_value=0.5, max_value=1e5), min_size=1,
                    max_size=100))
    def test_histogram_partitions(self, vals):
        counts = histogram_buckets(vals)
        assert sum(counts) == len(vals)

    def test_bucket_labels(self):
        assert bucket_label(0) == "[0x, 1x)"
        assert bucket_label(1) == "[1x, 10x)"
        assert bucket_label(len(BUCKETS) - 1).startswith(">=")

    def test_fraction_below(self):
        assert fraction_below([1, 5, 20], 10) == pytest.approx(2 / 3)
        assert fraction_below([], 10) == 0.0


class TestSlowdownMeasurement:
    def test_ordering_for_dense_program(self):
        """On an FP-dense program: base < FPX < FPX w/o GT <= BinFPE."""
        m = measure_slowdowns(program_by_name("shoc/GEMM")
                              if False else program_by_name("GEMM"))
        assert m.fpx_slowdown > 1.0
        assert m.binfpe_slowdown > m.fpx_slowdown
        assert m.speedup_over_binfpe > 10

    def test_slowdowns_are_deterministic(self):
        a = measure_slowdowns(program_by_name("hotspot"))
        b = measure_slowdowns(program_by_name("hotspot"))
        assert a.fpx_slowdown == b.fpx_slowdown
        assert a.binfpe_slowdown == b.binfpe_slowdown

    def test_hang_program(self):
        m = measure_slowdowns(program_by_name("LULESH"))
        assert m.binfpe.hung
        assert not m.fpx.hung
        assert m.binfpe_slowdown == m.binfpe.cost.hang_slowdown_cap

    def test_outlier_program(self):
        """simpleAWBarrier-class: GPU-FPX slower than BinFPE (GT alloc)."""
        m = measure_slowdowns(program_by_name("simpleAWBarrier"))
        assert m.speedup_over_binfpe < 1.0


class TestSamplingSweep:
    def test_movielens_sampling_speedup(self):
        """The Figure 6 anecdote: k=256 cuts CuMF-Movielens' time by an
        order of magnitude without losing exceptions."""
        from repro.fpx import DetectorConfig
        prog = program_by_name("CuMF-Movielens")
        base = run_baseline(prog)
        full_rep, full = run_detector(prog)
        samp_rep, samp = run_detector(
            prog, config=DetectorConfig(freq_redn_factor=256))
        ratio = full.slowdown(base) / samp.slowdown(base)
        assert ratio > 8, f"sampling speedup only {ratio:.1f}x"
        # "without the loss of any previously detected exceptions"
        assert samp_rep.counts() == full_rep.counts()

    def test_figure6_shapes(self):
        """Geomean slowdown falls monotonically with k; exceptions only
        ever decrease."""
        progs = [program_by_name(n) for n in
                 ("CuMF-Movielens", "myocyte", "backprop")]
        data = figure6(progs, factors=(0, 4, 16, 64, 256))
        s = data.geomean_slowdowns
        assert all(s[i] >= s[i + 1] * 0.999 for i in range(len(s) - 1))
        e = data.total_exceptions
        assert all(e[i] >= e[i + 1] for i in range(len(e) - 1))
        # full instrumentation sees everything; k=4 misses nothing here
        assert e[0] == e[1]
        # k=64 misses myocyte transients
        assert e[3] < e[0]

    def test_figure6_is_one_session_per_program(self):
        """The baseline and every factor observe one build and one
        sweep unit per program."""
        progs = [program_by_name(n) for n in ("myocyte", "backprop")]
        with telemetry_session() as tel:
            figure6(progs)
        counters = metrics_snapshot(tel)["counters"]
        assert counters[names.CTR_BUILD_CACHE_MISS] == 2
        assert counters[names.CTR_SWEEP_UNITS_OK] == 2

    def test_figure6_render(self):
        progs = [program_by_name("backprop")]
        data = figure6(progs, factors=(0, 16))
        text = data.render()
        assert "FREQ-REDN-FACTOR" in text
        assert "off" in text
