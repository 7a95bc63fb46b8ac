"""Shadow-precision execution plane tests.

Three contracts under test:

1. **Non-perturbation** — turning the shadow on changes *nothing* about
   the primary execution: register state, channel-record streams
   (including order) and exception classifications stay bit-identical
   on every execution path.
2. **Silent-error detection** — the two registered silent-error
   workloads produce at least one ``fpx.shadow`` divergence record with
   *zero* IEEE exceptions, under the default 16-ULP threshold.
3. **Plumbing** — config normalisation, per-member partitioning in the
   megabatch engine, report/JSON shape, telemetry counters, the serve
   ``shadow`` knob, and the ``REPRO_POOL_START_METHOD`` CI lever.
"""

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.api import EXECUTION_PATHS, Session
from repro.compiler import KernelBuilder, compile_kernel
from repro.conformance.corpus import load_case
from repro.conformance.engine import _run_path, fuzz
from repro.conformance.oracle import f64_to_bits, ulp_distance64
from repro.fpx import DetectorConfig, FPXDetector
from repro.fpx.shadow import (
    ShadowConfig,
    default_shadow,
    normalize_shadow,
    set_default_shadow,
)
from repro.gpu.device import Device, LaunchConfig
from repro.harness.pool import WorkerPool
from repro.harness.runner import build_program, measure_slowdowns, \
    run_detector, run_workload_json
from repro.nvbit.plan import shadow_checkpoints
from repro.nvbit.runtime import LaunchSpec
from repro.sass.program import KernelCode
from repro.serve import JobService
from repro.serve.jobs import BadRequest, Job, parse_request
from repro.telemetry import metrics_snapshot, telemetry_session
from repro.telemetry.names import (
    CTR_SHADOW_CHECKS,
    CTR_SHADOW_DIVERGENCES,
)
from repro.workloads import program_by_name

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


@pytest.fixture(autouse=True)
def _no_process_default():
    """Shadow default hygiene: no test leaks a process-wide default."""
    set_default_shadow(None)
    yield
    set_default_shadow(None)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_normalize_forms(self):
        assert normalize_shadow(True) == ShadowConfig(ulp_threshold=16)
        assert normalize_shadow(4) == ShadowConfig(ulp_threshold=4)
        cfg = ShadowConfig(ulp_threshold=2)
        assert normalize_shadow(cfg) is cfg
        assert normalize_shadow(False) is None
        assert normalize_shadow(None) is None  # no default installed

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ShadowConfig(ulp_threshold=-1)
        with pytest.raises(TypeError):
            ShadowConfig(ulp_threshold=1.5)
        with pytest.raises(TypeError):
            normalize_shadow("on")

    def test_process_default_inherited_and_overridable(self):
        set_default_shadow(8)
        assert default_shadow() == ShadowConfig(ulp_threshold=8)
        # None defers to the default; False forces off despite it
        assert normalize_shadow(None) == ShadowConfig(ulp_threshold=8)
        assert normalize_shadow(False) is None
        session = Session(FPXDetector(DetectorConfig()))
        assert session.shadow_tracker is not None
        off = Session(FPXDetector(DetectorConfig()), shadow=False)
        assert off.shadow_tracker is None


# ---------------------------------------------------------------------------
# golden equivalence: the shadow never perturbs the primary
# ---------------------------------------------------------------------------


class TestGoldenEquivalence:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_corpus_identical_with_shadow_on_every_path(self, path):
        case = load_case(json.loads(path.read_text()))
        code = KernelCode.assemble(case.name, case.sass())
        for name, knobs in EXECUTION_PATHS.items():
            off = _run_path(code, case, knobs, shadow=None)
            on = _run_path(code, case, knobs, shadow=True)
            assert on.outputs == off.outputs, name
            assert on.messages == off.messages, name   # stream + order
            assert on.records == off.records, name
            assert on.report == off.report, name

    def test_fuzz_with_shadow_stays_green(self):
        # A miniature of the CI gate (200 cases there): generated cases
        # across every path with the shadow on, plus the pooled-sweep
        # replay-digest comparison.
        result = fuzz(16, 7, jobs=1, shadow=True)
        assert result.failures == []


# ---------------------------------------------------------------------------
# silent-error workloads
# ---------------------------------------------------------------------------


class TestSilentErrorWorkloads:
    def test_cancellation_diverges_with_zero_exceptions(self):
        program = program_by_name("shadow-cancel")
        report, _ = run_detector(program, shadow=True)
        assert not report.has_exceptions()
        shadow = report.shadow
        assert shadow is not None
        assert shadow.has_divergence()
        assert shadow.total() == 1
        rec = shadow.records[0]
        assert rec.fmt.display == "FP32"
        assert rec.max_ulp > shadow.threshold
        assert rec.count == 64            # 32 lanes x 2 launches
        assert shadow.checks > 0
        line = shadow.lines()[0]
        assert "compensated_sum_kernel" in line
        assert "SHADOW INFO" in line

    def test_gmres_fp64_accumulation_diverges(self):
        program = program_by_name("shadow-gmres")
        report, _ = run_detector(program, shadow=True)
        assert not report.has_exceptions()
        shadow = report.shadow
        assert shadow.total() == 1
        assert shadow.records[0].fmt.display == "FP64"
        assert shadow.records[0].max_ulp > shadow.threshold

    def test_shadow_off_attaches_nothing(self):
        program = program_by_name("shadow-cancel")
        report, _ = run_detector(program)
        assert report.shadow is None
        assert "shadow" not in report.to_json()

    def test_shadow_off_builds_no_slots(self):
        # Slot tables belong to the shadow plane: decode never builds
        # them, so a shadow-off measurement leaves none on its kernels.
        program = program_by_name("shadow-cancel")
        built = build_program(program)
        measure_slowdowns(program, built=built)
        codes = [spec.code for spec in built.schedule]
        assert not any(hasattr(code, "_shadow_slots") for code in codes)
        run_detector(program, built=built, shadow=True)
        assert all(hasattr(code, "_shadow_slots") for code in codes)

    def test_huge_threshold_suppresses_divergence(self):
        # the cancel site is ~1.1e9 FP32 ULPs; a 2^31 threshold sits
        # above it, so checks still run but nothing is reported
        program = program_by_name("shadow-cancel")
        report, _ = run_detector(program, shadow=2 ** 31)
        assert report.shadow.checks > 0
        assert report.shadow.total() == 0

    def test_json_document_shape(self):
        payload = run_workload_json("shadow-cancel", shadow=True)
        doc = payload["report"]
        assert doc["schema_version"] == 1   # shadow key is additive-only
        sh = doc["shadow"]
        assert sh["threshold"] == 16
        assert sh["total"] == 1
        rec = sh["records"][0]
        assert rec["classification"]["fmt"] == "FP32"
        assert rec["kernel"] == "compensated_sum_kernel"
        assert rec["opcode"] == "FADD"
        assert rec["count"] == 64
        assert rec["max_ulp"] > 16

    def test_shadow_counters_on_telemetry(self):
        program = program_by_name("shadow-cancel")
        with telemetry_session() as tel:
            run_detector(program, shadow=True)
            snap = metrics_snapshot(tel)["counters"]
        assert snap[CTR_SHADOW_CHECKS] > 0
        assert snap[CTR_SHADOW_DIVERGENCES] == 64

    def test_shadow_checkpoints_surface_in_plan(self):
        program = program_by_name("shadow-cancel")
        schedule = program.build(Device())
        pts = shadow_checkpoints(schedule[0].code)
        assert pts
        assert all(fmt in ("FP32", "FP64") for *_, fmt in pts)


# ---------------------------------------------------------------------------
# megabatch member partitioning
# ---------------------------------------------------------------------------


def _absorb_kernel():
    """diff = (big + small) - big: diverges iff ``small`` is absorbed."""
    kb = KernelBuilder("absorbk")
    big = kb.f32_param("big")
    small = kb.f32_param("small")
    out = kb.ptr_param("out")
    acc = kb.let("acc", big + small)
    kb.store(out, kb.global_idx(), acc - big)
    return compile_kernel(kb.build())


class TestMemberPartitioning:
    #: 0.25 is absorbed at 1e8 (spacing 8.0) -> divergence; 64.0 is an
    #: exact multiple of the spacing -> no rounding error at all.
    SMALLS = (0.25, 64.0, 0.25)

    def _run(self, megabatch):
        compiled = _absorb_kernel()
        device = Device()
        out = device.alloc_zeros(4 * 32)
        specs = [LaunchSpec(compiled.code, LaunchConfig(1, 32),
                            tuple(compiled.param_words(
                                big=1e8, small=s, out=out)))
                 for s in self.SMALLS]
        session = Session(FPXDetector(DetectorConfig()), device=device,
                          megabatch=megabatch, shadow=True)
        result = session.run_batch(specs)
        views = []
        for m in range(len(self.SMALLS)):
            sh = session.report(member=m).shadow
            views.append((sh.total(), sh.divergences(),
                          tuple(sh.lines())))
        return result.engine, views

    def test_divergences_attributed_per_member(self):
        engine, views = self._run(True)
        assert engine == "megabatch"
        assert views[0][0] == 1 and views[0][1] == 32
        assert views[1] == (0, 0, ())
        assert views[2][0] == 1 and views[2][1] == 32

    def test_stacked_members_match_serial(self):
        got_engine, got = self._run(True)
        ref_engine, ref = self._run(False)
        assert got_engine == "megabatch"
        assert ref_engine == "serial"
        assert got == ref


# ---------------------------------------------------------------------------
# FP64 ULP helper units
# ---------------------------------------------------------------------------


class TestUlp64:
    def test_adjacent_values_are_one_apart(self):
        one = f64_to_bits(1.0)
        next_up = f64_to_bits(1.0 + 2.0 ** -52)
        assert ulp_distance64(one, next_up) == 1

    def test_signed_zeros_adjacent(self):
        assert ulp_distance64(f64_to_bits(0.0), f64_to_bits(-0.0)) == 1

    def test_symmetric_across_zero(self):
        denorm = 5e-324                      # smallest positive denormal
        assert ulp_distance64(f64_to_bits(-denorm),
                              f64_to_bits(denorm)) == 3

    def test_identity(self):
        assert ulp_distance64(f64_to_bits(-1.5), f64_to_bits(-1.5)) == 0


# ---------------------------------------------------------------------------
# serve: the per-job shadow knob
# ---------------------------------------------------------------------------


class TestServeShadow:
    def test_option_validation(self):
        body = {"workload": "shadow-cancel", "tool": "detector"}
        ok = parse_request({**body, "options": {"shadow": True}})
        assert ok.option("shadow", False) is True
        ok = parse_request({**body, "options": {"shadow": 8}})
        assert ok.option("shadow", False) == 8
        with pytest.raises(BadRequest, match="shadow"):
            parse_request({**body, "options": {"shadow": -1}})
        with pytest.raises(BadRequest, match="shadow"):
            parse_request({**body, "options": {"shadow": "on"}})

    def test_shadow_defaults_off_per_job(self):
        req = parse_request({"workload": "shadow-cancel"})
        assert req.option("shadow", False) is False

    def test_shadow_distinguishes_cache_and_plan(self):
        base = {"workload": "shadow-cancel", "tool": "detector"}
        off = parse_request(base)
        on = parse_request({**base, "options": {"shadow": True}})
        assert off.cache_key() != on.cache_key()
        assert off.plan_fingerprint() != on.plan_fingerprint()

    def test_submitted_mono_brackets_monotonic_clock(self):
        before = time.monotonic()
        job = Job(id="j", request=parse_request(
            {"workload": "shadow-cancel"}))
        after = time.monotonic()
        assert before <= job.submitted_mono <= after

    def test_workload_job_reports_shadow(self):
        with JobService() as service:
            off = service.submit({"workload": "shadow-cancel",
                                  "tool": "detector"})
            on = service.submit({"workload": "shadow-cancel",
                                 "tool": "detector",
                                 "options": {"shadow": True}})
            assert off.wait(120) and on.wait(120)
        assert off.status == "done" and on.status == "done"
        assert "shadow" not in off.report["report"]
        sh = on.report["report"]["shadow"]
        assert sh["total"] == 1
        assert sh["records"][0]["count"] == 64


# ---------------------------------------------------------------------------
# pool start-method CI lever
# ---------------------------------------------------------------------------


class TestPoolStartMethodEnv:
    def test_invalid_value_rejected_with_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            WorkerPool(1)

    def test_env_var_forces_method(self, monkeypatch):
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:  # pragma: no cover - non-fork OS
            pytest.skip("fork unavailable")
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "fork")
        with WorkerPool(1) as pool:
            assert pool.start_method == "fork"

    def test_explicit_method_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "bogus")
        methods = multiprocessing.get_all_start_methods()
        with WorkerPool(1, start_method=methods[0]) as pool:
            assert pool.start_method == methods[0]
