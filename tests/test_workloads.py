"""Workload-suite tests: registry shape and Table 4/5/6 reproduction."""

import pytest

from repro.compiler import CompileOptions
from repro.fpx import DetectorConfig
from repro.harness.runner import measured_counts, run_baseline, \
    run_detector, run_binfpe
from repro.workloads import (
    EXCEPTION_PROGRAMS,
    SUITE_SIZES,
    TABLE4,
    TABLE5_K64,
    TABLE6_FASTMATH,
    all_programs,
    exception_programs,
    kind_of,
    program_by_name,
)


def _sparse(d):
    return {k: v for k, v in d.items() if v}


class TestRegistry:
    def test_exactly_151_programs(self):
        assert len(all_programs()) == 151

    def test_suite_sizes_match_table3(self):
        by_suite = {}
        for p in all_programs():
            by_suite[p.suite] = by_suite.get(p.suite, 0) + 1
        assert by_suite == SUITE_SIZES

    def test_26_exception_programs(self):
        assert len(exception_programs()) == 26
        assert len(TABLE4) == 26

    def test_nine_with_nan_inf_div0_counting(self):
        """Table 4: '26 programs ... nine of them involving NaN, INF, or
        DIV0' — the paper's own Table 4 actually shows more than nine
        rows with severe entries; we count rows whose *FP32 or FP64*
        severe cells are non-zero and simply pin the table itself."""
        severe_rows = [
            name for name, counts in TABLE4.items()
            if any(v for k, v in counts.items()
                   if k.split(".")[1] in ("NAN", "INF", "DIV0"))]
        # Table 4 has 12 rows with at least one red (severe) cell; the
        # two Sw4lite builds are one *program*, and Table 5's "12
        # programs containing severe exceptions" counts this way too
        assert len(severe_rows) == 12
        assert len({n.split(" (")[0] for n in severe_rows}) == 11

    def test_unique_lookup(self):
        p = program_by_name("myocyte")
        assert p.suite == "gpu-rodinia"
        # duplicate names are suite-qualified
        p2 = program_by_name("parboil/bfs")
        assert p2.suite == "parboil"

    def test_every_program_builds(self):
        """Every one of the 151 programs compiles and yields a schedule."""
        from repro.gpu import Device
        for program in all_programs():
            schedule = program.build(Device())
            assert schedule, program.name

    def test_kinds_assigned(self):
        kinds = {kind_of(p) for p in all_programs()}
        assert {"int", "mem", "mixed", "dense", "jitty", "tiny", "hang",
                "exception"} <= kinds


class TestTable4:
    """Every Table 4 row must reproduce exactly."""

    @pytest.mark.parametrize("name", sorted(TABLE4))
    def test_exceptions_match_paper(self, name):
        report, _ = run_detector(EXCEPTION_PROGRAMS[name])
        assert measured_counts(report) == _sparse(TABLE4[name])

    def test_generic_programs_are_exception_free(self):
        """The other 125 programs must report nothing (spot-check a
        representative slice, one per kind)."""
        seen = set()
        for program in all_programs():
            kind = kind_of(program)
            if kind == "exception" or kind in seen:
                continue
            seen.add(kind)
            report, _ = run_detector(program)
            assert not report.has_exceptions(), program.name

    def test_binfpe_undercounts_fsel_sites(self):
        """BinFPE sees Table 4's arithmetic exceptions but misses any
        that only GPU-FPX's control-flow coverage reaches; at minimum it
        never reports MORE records."""
        for name in ("GRAMSCHM", "myocyte", "HPCG"):
            fpx_report, _ = run_detector(EXCEPTION_PROGRAMS[name])
            bin_report, _ = run_binfpe(EXCEPTION_PROGRAMS[name])
            assert bin_report.total() <= fpx_report.total()


class TestTable5:
    """Sampling at k=64 loses exactly the paper's transient records."""

    @pytest.mark.parametrize("name", sorted(TABLE5_K64))
    def test_sampled_counts(self, name):
        report, _ = run_detector(
            EXCEPTION_PROGRAMS[name],
            config=DetectorConfig(freq_redn_factor=64))
        assert measured_counts(report) == _sparse(TABLE5_K64[name])

    def test_number_of_exception_programs_unchanged(self):
        """'the number of programs with exceptions remains the same' —
        every Table 5 program still reports *something* at k=64."""
        for name in TABLE5_K64:
            report, _ = run_detector(
                EXCEPTION_PROGRAMS[name],
                config=DetectorConfig(freq_redn_factor=64))
            assert report.has_exceptions()

    def test_small_k_loses_nothing(self):
        """k=4 still samples inside the transient windows."""
        report, _ = run_detector(EXCEPTION_PROGRAMS["myocyte"],
                                 config=DetectorConfig(freq_redn_factor=4))
        assert measured_counts(report) == _sparse(TABLE4["myocyte"])


class TestTable6:
    """The --use_fast_math study."""

    @pytest.mark.parametrize("name", [p.name for p in all_programs()])
    def test_every_program_runs_under_fast_math(self, name):
        stats = run_baseline(program_by_name(name),
                             options=CompileOptions.fast_math())
        assert stats.launches > 0

    @pytest.mark.parametrize("name", sorted(TABLE6_FASTMATH))
    def test_fastmath_counts(self, name):
        report, _ = run_detector(EXCEPTION_PROGRAMS[name],
                                 options=CompileOptions.fast_math())
        assert measured_counts(report) == _sparse(TABLE6_FASTMATH[name])

    def test_subnormals_vanish(self):
        """'in GESUMMV, cfd, myocyte, S3D, stencil, wp, and rayTracing,
        all subnormals just vanish' (FP32)."""
        for name in ("cfd", "S3D", "stencil", "wp", "rayTracing",
                     "myocyte"):
            report, _ = run_detector(EXCEPTION_PROGRAMS[name],
                                     options=CompileOptions.fast_math())
            counts = report.counts()
            assert counts.get("FP32.SUB", 0) == 0, name

    def test_myocyte_div0_appear_after_sub_disappear(self):
        """'six division-by-0 exceptions are raised immediately after
        eight disappearances of subnormal number exceptions'."""
        precise, _ = run_detector(EXCEPTION_PROGRAMS["myocyte"])
        fast, _ = run_detector(EXCEPTION_PROGRAMS["myocyte"],
                               options=CompileOptions.fast_math())
        pc, fc = precise.counts(), fast.counts()
        assert pc["FP32.SUB"] - fc["FP32.SUB"] == 8
        assert fc["FP32.DIV0"] - pc["FP32.DIV0"] == 6

    def test_myocyte_fp64_contraction_subnormals(self):
        """FP64 SUB 2 -> 4: fused contraction creates new subnormals."""
        precise, _ = run_detector(EXCEPTION_PROGRAMS["myocyte"])
        fast, _ = run_detector(EXCEPTION_PROGRAMS["myocyte"],
                               options=CompileOptions.fast_math())
        assert precise.counts()["FP64.SUB"] == 2
        assert fast.counts()["FP64.SUB"] == 4


class TestFP32InFP64Programs:
    def test_laghos_fp32_nan_via_sfu_binding(self):
        """§4.1: FP32 exceptions in FP64-only code via SFU binding."""
        report, _ = run_detector(EXCEPTION_PROGRAMS["Laghos"])
        assert report.counts()["FP32.NAN"] == 1
        assert report.counts()["FP64.NAN"] == 1


class TestClosedSourceReporting:
    def test_hpcg_reports_unknown_path(self):
        report, _ = run_detector(EXCEPTION_PROGRAMS["HPCG"])
        for line in report.lines():
            assert "/unknown_path in [void hpcg_spmv_kernel]:0" in line

    def test_movielens_reports_als_line_213(self):
        """The paper: 'We could locate the NaN to line 213 of file
        als.cu'."""
        report, _ = run_detector(EXCEPTION_PROGRAMS["CuMF-Movielens"])
        div0_lines = [ln for ln in report.lines() if "DIV0" in ln]
        assert any("als.cu:213" in ln for ln in div0_lines)
