"""Input stress-testing tests (§6 future-work extension)."""

import functools

import numpy as np
import pytest

from repro.compiler import CompileOptions, KernelBuilder, compile_kernel
from repro.fpx.stress import InputStressTester, ParamRange, StressReport
from repro.harness.parallel import SweepUnit, run_sweep
from repro.harness.pool import pool_available

needs_pool = pytest.mark.skipif(not pool_available(),
                                reason="worker pool unavailable")


def divide_kernel():
    """y = a / b over scalar params — exceptions when b approaches 0."""
    kb = KernelBuilder("divk")
    a = kb.f32_param("a")
    b = kb.f32_param("b")
    out = kb.ptr_param("out")
    kb.store(out, kb.global_idx(), a / b)
    return compile_kernel(kb.build())


def sqrt_kernel():
    kb = KernelBuilder("sqrtk")
    x = kb.f32_param("x")
    out = kb.ptr_param("out")
    kb.store(out, kb.global_idx(), kb.sqrt(x))
    return compile_kernel(kb.build())


def safe_kernel():
    """y = 0.5 * x + 1 over x in [1, 2] — cannot raise exceptions.

    (A first draft of this test used x in [0, 1] — and the stress
    tester promptly found that x = 1e-40 makes 0.5 * x a subnormal.
    The oracle is honest.)"""
    kb = KernelBuilder("safek")
    x = kb.f32_param("x")
    out = kb.ptr_param("out")
    kb.store(out, kb.global_idx(), x * 0.5 + 1.0)
    return compile_kernel(kb.build())


@pytest.fixture
def out_addr():
    # probes allocate their own devices; parameter value just needs to be
    # a plausible address inside the default 16 MiB global memory
    return 0x1000


class TestStressSearch:
    def test_finds_division_by_zero(self, out_addr):
        tester = InputStressTester(
            divide_kernel(),
            [ParamRange("a", -10.0, 10.0), ParamRange("b", -1.0, 1.0)],
            fixed_params={"out": out_addr})
        report = tester.run(samples=16)
        assert report.found_exceptions
        assert "FP32.DIV0" in report.cells_found
        assert report.severe_triggers

    def test_finds_sqrt_of_negative(self, out_addr):
        tester = InputStressTester(
            sqrt_kernel(), [ParamRange("x", -4.0, 4.0)],
            fixed_params={"out": out_addr})
        report = tester.run(samples=16)
        assert "FP32.NAN" in report.cells_found
        # negative x -> NaN from RSQ; the search also finds x == 0
        # (precise sqrt's internal INF+NaN, guarded at the output)
        assert any(t.params["x"] < 0 for t in report.severe_triggers)

    def test_safe_kernel_clean(self, out_addr):
        tester = InputStressTester(
            safe_kernel(), [ParamRange("x", 1.0, 2.0)],
            fixed_params={"out": out_addr})
        report = tester.run(samples=24)
        assert not report.found_exceptions
        assert report.probes > 24  # ladder + samples

    def test_triggers_carry_full_reports(self, out_addr):
        tester = InputStressTester(
            divide_kernel(),
            [ParamRange("a", 1.0, 1.0), ParamRange("b", -1.0, 1.0)],
            fixed_params={"out": out_addr})
        report = tester.run(samples=8)
        trig = report.triggers[0]
        assert any("#GPU-FPX LOC-EXCEP INFO" in ln
                   for ln in trig.report_lines)

    def test_deterministic(self, out_addr):
        def run_once():
            tester = InputStressTester(
                divide_kernel(),
                [ParamRange("a", -10.0, 10.0),
                 ParamRange("b", -1.0, 1.0)],
                fixed_params={"out": out_addr}, seed=7)
            return tester.run(samples=12).cells_found
        assert run_once() == run_once()

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError):
            InputStressTester(divide_kernel(),
                              [ParamRange("nope", 0.0, 1.0)])

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ParamRange("a", 1.0, 0.0)


class TestInternalExceptionsOnCleanOutputs:
    def test_internal_exception_with_clean_output(self, out_addr):
        """The §6 motivation: 'even when the output does not reveal
        exceptions, one must look inside the kernels.'  A kernel that
        clamps its own INF still gets flagged by the stress loop."""
        kb = KernelBuilder("clamped")
        x = kb.f32_param("x")
        out = kb.ptr_param("out")
        big = kb.let("big", x * 3.0e38)       # overflows for |x| > ~1.1
        kb.store(out, kb.global_idx(), kb.minimum(big, 1.0e30))
        compiled = compile_kernel(kb.build())
        tester = InputStressTester(
            compiled, [ParamRange("x", 0.0, 100.0)],
            fixed_params={"out": out_addr})
        report = tester.run(samples=12)
        assert "FP32.INF" in report.cells_found


def _stress_run(seed):
    tester = InputStressTester(
        divide_kernel(),
        [ParamRange("a", -10.0, 10.0), ParamRange("b", -1.0, 1.0)],
        fixed_params={"out": 0x1000}, seed=seed)
    report = tester.run(samples=8, exploit_rounds=1)
    return {
        "seed": seed,
        "probes": report.probes,
        "cells": sorted(report.cells_found),
        "triggers": [(sorted(t.params.items()), sorted(t.records),
                      t.severe, t.report_lines)
                     for t in report.triggers],
    }


def _stress_unit(seed):
    """One seeded stress run as a sweep unit; the seed travels with the
    unit, never with the worker, so placement cannot change results."""
    return SweepUnit(f"stress/{seed}", functools.partial(_stress_run, seed))


@needs_pool
class TestStressSweepReproducibility:
    def test_bit_reproducible_across_jobs(self):
        # A stress campaign fanned out over the sweep pool must be
        # bit-for-bit reproducible regardless of worker count: probe
        # parameters, triggering records and report lines all travel
        # back identically whether units run serially or on 4 workers.
        seeds = [3, 5, 9, 11]
        serial = run_sweep([_stress_unit(s) for s in seeds],
                           jobs=1).values_strict()
        pooled = run_sweep([_stress_unit(s) for s in seeds], jobs=4)
        assert pooled.engine == "pool"
        assert serial == pooled.values_strict()
        # the runs are non-trivial: every seed found the b=0 trigger
        assert all(r["triggers"] for r in serial)
        assert [r["seed"] for r in serial] == seeds


class TestExplorationSignCoverage:
    """Regression: the log-uniform sampler's sign used to come from
    ``np.sign(r.high)``, so a range like [-1e3, 0] (sign(high) == 0)
    collapsed every magnitude sample to 0.0 and negative-only ranges
    never produced a negative magnitude sample at all."""

    def _candidates(self, low, high, samples=64, seed=1):
        tester = InputStressTester(
            divide_kernel(), [ParamRange("b", low, high)],
            fixed_params={"a": 3.0, "out": 0x1000}, seed=seed)
        return [c["b"] for c in tester._explore_candidates(samples)]

    def test_negative_range_touching_zero_does_not_collapse(self):
        values = self._candidates(-1e3, 0.0)
        assert all(v <= 0.0 for v in values)
        negative = [v for v in values if v < 0.0]
        # far more than the uniform half alone could account for
        assert len(negative) > 40
        # the zero-touching range ladders down to tiny magnitudes
        assert min(abs(v) for v in negative) < 1e-10

    def test_negative_only_range_keeps_its_sign(self):
        values = self._candidates(-1e3, -1.0)
        assert all(v < 0.0 for v in values)

    def test_straddling_range_samples_both_signs(self):
        values = self._candidates(-10.0, 10.0)
        assert any(v < 0.0 for v in values)
        assert any(v > 0.0 for v in values)
