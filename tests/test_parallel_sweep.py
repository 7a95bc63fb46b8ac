"""Parallel sweep engine tests: fault isolation, determinism, fan-in.

Three concerns, mirroring the guarantees :mod:`repro.harness.parallel`
documents:

* fault injection — a raising unit, a unit hanging past the deadline,
  and a worker killed mid-unit must all surface as failed outcomes on
  the worker pool without aborting the sweep;
* golden equivalence — tables and figures rendered at ``jobs=2`` and
  ``jobs=4`` must be byte-identical to the serial path, and the merged
  telemetry registry must equal a serial run's; a sweep over an ad-hoc
  program (which does not pickle) runs in-process with the same render;
* the snapshot/merge protocol itself (counters add, gauges last-wins,
  histograms merge elementwise, spans and events survive the trip).
"""

import dataclasses
import functools
import os
import pickle
import time

import pytest

from repro.harness.figures import figure4, figure6
from repro.harness.parallel import (
    FAIL_CRASH,
    FAIL_ERROR,
    FAIL_TIMEOUT,
    SweepError,
    SweepUnit,
    default_jobs,
    run_sweep,
)
from repro.harness.pool import pool_available
from repro.harness.tables import table4, table5, table7
from repro.telemetry import (
    get_telemetry,
    merge_snapshot,
    metrics_snapshot,
    snapshot_registry,
    telemetry_session,
)
from repro.telemetry import names
from repro.workloads import (
    EXCEPTION_PROGRAMS,
    all_programs,
    exception_programs,
    program_by_name,
)
from repro.workloads.registry import _BY_NAME

needs_pool = pytest.mark.skipif(not pool_available(),
                                reason="worker pool unavailable")


# Module-level unit bodies, bound with functools.partial: sweep units
# must pickle to run on the worker pool.

def _value(value):
    return value


def _sleepy(value, delay):
    time.sleep(delay)
    return value


def _raise(message):
    raise RuntimeError(message)


def _exit(code):
    os._exit(code)


def _ok(value):
    return SweepUnit(f"ok/{value}", functools.partial(_value, value))


def _boom(message="err"):
    return SweepUnit("boom", functools.partial(_raise, message))


def _die(code):
    return SweepUnit("die", functools.partial(_exit, code))


def _hang(key="hang", seconds=60.0):
    return SweepUnit(key, functools.partial(_sleepy, None, seconds))


class TestSerialPath:
    def test_values_in_unit_order(self):
        result = run_sweep([_ok(i) for i in range(5)], jobs=1)
        assert result.values_strict() == [0, 1, 2, 3, 4]
        assert result.jobs == 1
        assert not result.failures

    def test_error_marks_unit_failed_and_continues(self):
        def boom():
            raise ValueError("broken unit")

        units = [_ok("a"), SweepUnit("boom", boom), _ok("b")]
        result = run_sweep(units, jobs=1, retries=0)
        assert [o.ok for o in result.outcomes] == [True, False, True]
        failure = result.outcomes[1].failure
        assert failure.kind == FAIL_ERROR
        assert "broken unit" in failure.message
        assert result.values() == ["a", None, "b"]

    def test_values_strict_raises_sweep_error(self):
        def boom():
            raise RuntimeError("nope")

        result = run_sweep([SweepUnit("boom", boom)], jobs=1, retries=0)
        with pytest.raises(SweepError, match="boom"):
            result.values_strict()

    def test_retry_recovers_transient_error(self):
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("transient")
            return "recovered"

        result = run_sweep([SweepUnit("flaky", flaky)], jobs=1, retries=1)
        assert result.values_strict() == ["recovered"]
        assert result.outcomes[0].attempts == 2

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_negative_timeout_rejected_up_front(self):
        # Regression: a negative timeout used to be treated as falsy and
        # silently disabled the deadline; it is a config error.
        with pytest.raises(ValueError, match="timeout"):
            run_sweep([_ok(1)], jobs=1, timeout=-1.0)


@needs_pool
class TestFaultInjection:
    def test_raising_unit_does_not_abort_sweep(self):
        units = [_ok(1), _boom("injected failure"), _ok(2), _ok(3)]
        result = run_sweep(units, jobs=2, retries=1)
        assert result.engine == "pool"
        assert [o.ok for o in result.outcomes] == [True, False, True, True]
        bad = result.outcomes[1]
        assert bad.failure.kind == FAIL_ERROR
        assert "injected failure" in bad.failure.message
        assert bad.attempts == 2  # one retry, then gave up
        assert result.values() == [1, None, 2, 3]

    def test_hanging_unit_times_out_without_retry(self):
        units = [_ok("fast"), _hang(), _ok("fast2")]
        t0 = time.monotonic()
        result = run_sweep(units, jobs=2, timeout=0.5, retries=2)
        elapsed = time.monotonic() - t0
        assert result.engine == "pool"
        assert elapsed < 30.0  # nowhere near the 60 s sleep
        bad = result.outcomes[1]
        assert not bad.ok
        assert bad.failure.kind == FAIL_TIMEOUT
        assert bad.attempts == 1  # timeouts are not retried
        assert result.values() == ["fast", None, "fast2"]

    def test_timeout_zero_means_already_expired(self):
        # Regression: ``timeout=0`` used to read as "no timeout" through a
        # truthiness check; it must mean an immediately-expired deadline.
        # two units so the sweep actually reaches the pool (jobs is
        # clamped to the unit count; one unit would run serially, and
        # the serial path enforces no deadlines)
        units = [_hang("slow/0", 30.0), _hang("slow/1", 30.0)]
        t0 = time.monotonic()
        result = run_sweep(units, jobs=2, timeout=0, retries=2)
        assert result.engine == "pool"
        assert time.monotonic() - t0 < 25.0
        for bad in result.outcomes:
            assert not bad.ok
            assert bad.failure.kind == FAIL_TIMEOUT
            assert bad.attempts == 1  # timeouts are still not retried

    def test_killed_worker_surfaces_as_crash(self):
        units = [_ok("x"), _die(17), _ok("y")]
        result = run_sweep(units, jobs=2, retries=1)
        assert result.engine == "pool"
        bad = result.outcomes[1]
        assert not bad.ok
        assert bad.failure.kind == FAIL_CRASH
        assert bad.attempts == 2  # crashes are retried
        assert result.values() == ["x", None, "y"]

    def test_mixed_faults_one_sweep(self):
        units = [_ok(0), _boom(), _die(1), _hang(), _ok(4)]
        result = run_sweep(units, jobs=3, timeout=1.0, retries=1)
        assert result.engine == "pool"
        kinds = [o.failure.kind if o.failure else None
                 for o in result.outcomes]
        assert kinds == [None, FAIL_ERROR, FAIL_CRASH, FAIL_TIMEOUT, None]
        assert result.values() == [0, None, None, None, 4]
        with pytest.raises(SweepError) as exc_info:
            result.values_strict()
        message = str(exc_info.value)
        for key in ("boom", "die", "hang"):
            assert key in message

    def test_failure_accounting_counters_and_events(self):
        with telemetry_session() as tel:
            result = run_sweep([_ok(1), _boom()], jobs=2, retries=1)
            snap = metrics_snapshot(tel)
            failures = tel.events_named(names.EVT_SWEEP_UNIT_FAILED)
        assert result.engine == "pool"
        assert snap["counters"][names.CTR_SWEEP_UNITS_OK] == 1
        assert snap["counters"][names.CTR_SWEEP_UNITS_FAILED] == 1
        assert snap["counters"][names.CTR_SWEEP_RETRIES] == 1
        assert len(failures) == 1
        assert failures[0]["key"] == "boom"
        assert failures[0]["kind"] == FAIL_ERROR

    def test_results_ordered_despite_uneven_durations(self):
        units = [SweepUnit(f"u{i}", functools.partial(
            _sleepy, i, 0.2 if i == 0 else 0.0)) for i in range(6)]
        result = run_sweep(units, jobs=3)
        assert result.engine == "pool"
        assert result.values_strict() == [0, 1, 2, 3, 4, 5]


class TestUnitPickling:
    """Registered programs pickle by key; anything else runs in-process."""

    def test_registered_programs_pickle_to_the_same_object(self):
        for key, program in _BY_NAME.items():
            assert pickle.loads(pickle.dumps(program)) is program, key

    def test_adhoc_program_does_not_pickle(self):
        adhoc = dataclasses.replace(program_by_name("GRAMSCHM"),
                                    name="adhoc")
        with pytest.raises(pickle.PicklingError, match="adhoc"):
            pickle.dumps(adhoc)

    def test_closure_units_run_in_process_and_log_why(self, caplog):
        units = [SweepUnit("c/0", lambda: 0), SweepUnit("c/1", lambda: 1)]
        with caplog.at_level("INFO", "repro.harness.parallel"):
            result = run_sweep(units, jobs=2)
        assert result.engine == "serial"
        assert result.values_strict() == [0, 1]
        assert any("does not pickle" in r.getMessage()
                   for r in caplog.records)

    def test_adhoc_table4_runs_in_process_with_serial_render(self, caplog):
        adhoc = dataclasses.replace(program_by_name("GRAMSCHM"),
                                    name="adhoc")
        assert table4([adhoc], jobs=2).render() \
            == table4([adhoc], jobs=1).render()
        # Two units reach the pickling gate (one is clamped to jobs=1);
        # one program listed twice would be one unit, so use a twin.
        twin = dataclasses.replace(adhoc)
        serial = table4([adhoc, twin], jobs=1).render()
        with telemetry_session() as tel, \
                caplog.at_level("INFO", "repro.harness.parallel"):
            assert table4([adhoc, twin], jobs=2).render() == serial
        sweeps = [s for s in tel.spans if s.name == names.SPAN_SWEEP]
        assert [s.attrs["engine"] for s in sweeps] == ["serial"]
        assert any("'precise/adhoc' does not pickle" in r.getMessage()
                   for r in caplog.records)


@needs_pool
class TestGoldenEquivalence:
    """jobs=N must be byte-identical to the serial path."""

    def test_table4_render_identical(self):
        programs = exception_programs()[:6]
        serial = table4(programs, jobs=1).render()
        assert table4(programs, jobs=2).render() == serial
        assert table4(programs, jobs=4).render() == serial

    def test_table5_render_identical(self):
        programs = exception_programs()
        serial = table5(programs, jobs=1).render()
        assert table5(programs, jobs=2).render() == serial

    def test_table7_render_identical(self):
        programs = {p.name: p for p in EXCEPTION_PROGRAMS.values()}
        serial = table7(programs, jobs=1).render()
        assert table7(programs, jobs=2).render() == serial

    def test_figure4_render_identical(self):
        programs = all_programs()[:8]
        serial = figure4(programs, jobs=1).render()
        assert figure4(programs, jobs=2).render() == serial
        assert figure4(programs, jobs=4).render() == serial

    def test_figure6_render_identical(self):
        programs = [p for p in exception_programs()
                    if p.name in ("myocyte", "backprop")]
        serial = figure6(programs, jobs=1).render()
        assert figure6(programs, jobs=2).render() == serial

    def test_merged_telemetry_equals_serial(self):
        programs = all_programs()[:4]
        with telemetry_session() as tel:
            serial = figure4(programs, jobs=1).measurements
            serial_snap = metrics_snapshot(tel)
            serial_spans = sorted(s.name for s in tel.spans)
        with telemetry_session() as tel:
            parallel = figure4(programs, jobs=2).measurements
            parallel_snap = metrics_snapshot(tel)
            parallel_spans = sorted(s.name for s in tel.spans)
        assert [(s.fpx_slowdown, s.binfpe_slowdown, s.fpx_no_gt_slowdown)
                for s in serial] \
            == [(s.fpx_slowdown, s.binfpe_slowdown, s.fpx_no_gt_slowdown)
                for s in parallel]
        assert parallel_snap["counters"] == serial_snap["counters"]
        assert parallel_snap["histograms"] == serial_snap["histograms"]
        assert parallel_spans == serial_spans


class TestSnapshotMerge:
    def test_counters_add_and_gauges_last_win(self):
        with telemetry_session() as worker:
            worker.count("c", 3)
            worker.gauge("g", 7.0)
            snap = snapshot_registry(worker)
        with telemetry_session() as parent:
            parent.count("c", 2)
            parent.gauge("g", 1.0)
            merge_snapshot(parent, snap)
            assert parent.counters["c"].value == 5
            assert parent.gauges["g"].value == 7.0

    def test_histograms_merge_elementwise(self):
        buckets = (1.0, 10.0)
        with telemetry_session() as worker:
            worker.histogram("h", 0.5, buckets=buckets)
            worker.histogram("h", 20.0, buckets=buckets)
            snap = snapshot_registry(worker)
        with telemetry_session() as parent:
            parent.histogram("h", 5.0, buckets=buckets)
            merge_snapshot(parent, snap)
            h = parent.histograms["h"]
            assert h.count == 3
            assert h.min == 0.5
            assert h.max == 20.0

    def test_histogram_bucket_mismatch_warns_and_skips(self, caplog):
        # Regression: a mismatched histogram used to raise ValueError and
        # crash the whole sweep merge; now it is skipped with a warning,
        # and the rest of the snapshot still folds in.
        with telemetry_session() as worker:
            worker.histogram("h", 1.0, buckets=(1.0, 2.0))
            worker.count("c", 4)
            snap = snapshot_registry(worker)
        with telemetry_session() as parent:
            parent.histogram("h", 1.0, buckets=(5.0,))
            with caplog.at_level("WARNING", "repro.telemetry.snapshot"):
                merge_snapshot(parent, snap)
            assert any("bucket mismatch" in r.getMessage()
                       for r in caplog.records)
            h = parent.histograms["h"]
            assert h.buckets == (5.0,)
            assert h.count == 1  # the incompatible snapshot was skipped
            assert parent.counters["c"].value == 4  # rest still merged
            # the drop is also counted, so `telemetry summarize` can
            # surface silently-skipped observations
            dropped = parent.counters[names.CTR_MERGE_DROPPED]
            assert dropped.value == 1  # one observation in the skipped hist

    def test_spans_and_events_survive_round_trip(self):
        with telemetry_session() as worker:
            with worker.span("phase", kernel="k0"):
                worker.event("tick", n=1)
            snap = snapshot_registry(worker)
        with telemetry_session() as parent:
            merge_snapshot(parent, snap)
            assert [s.name for s in parent.spans] == ["phase"]
            assert parent.spans[0].attrs["kernel"] == "k0"
            assert parent.spans[0].duration >= 0.0
            assert [e["event"] for e in parent.events] == ["tick"]

    def test_merge_into_disabled_registry_is_noop(self):
        with telemetry_session() as worker:
            worker.count("c", 1)
            snap = snapshot_registry(worker)
        tel = get_telemetry()
        merge_snapshot(tel, snap)  # must not raise
        assert not tel.enabled
