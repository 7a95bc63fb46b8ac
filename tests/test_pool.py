"""Warm worker pool tests: lifecycle, scheduling, warm caches, identity.

Four concerns, mirroring :mod:`repro.harness.pool`'s guarantees:

* lifecycle — normal shutdown, a worker crash (``os._exit``), an
  external ``SIGKILL`` and ``abort()`` leave no live worker process and
  no flight-spill directory behind, and ``abort()`` harvests the spills
  of units that were still running;
* scheduling — a worker holds one task at a time, so the units behind a
  slow one finish on an idle worker; crashes and timeouts surface as
  failed outcomes; a respawned worker keeps the pool at full strength,
  and workers killed while idle are replaced by the next sweep;
* warmth — a pool reused across sweeps reports warm workers and warm
  build-cache hits, which is the entire point of keeping it alive;
* golden identity — sweeps routed through the pool render byte-identical
  to the serial path at jobs=1/2/4, and the merged telemetry registry
  (with a live ``/metrics`` server attached) equals a serial run's.
"""

import functools
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.harness import registry_key
from repro.harness.parallel import (
    FAIL_CRASH,
    FAIL_ERROR,
    FAIL_TIMEOUT,
    SweepUnit,
    run_sweep,
)
from repro.harness.pool import (
    WorkerPool,
    get_pool,
    install_pool,
    installed_pool,
    pool_available,
    shutdown_pool,
    uninstall_pool,
    use_pool,
)
from repro.harness.figures import figure4
from repro.harness.tables import table4
from repro.telemetry import metrics_snapshot, telemetry_session
from repro.telemetry import names
from repro.telemetry.server import MetricsServer
from repro.workloads import all_programs, exception_programs

needs_pool = pytest.mark.skipif(not pool_available(),
                                reason="worker pool unavailable "
                                       "(no fork or spawn start method)")


@pytest.fixture(autouse=True)
def _reap_pool():
    """No test leaks the process-wide pool (or its worker processes)."""
    yield
    shutdown_pool()


def _processes(pool):
    return [w.proc for w in pool._workers]


def _assert_torn_down(pool, procs):
    """No worker process outlives the pool, and neither do its spills."""
    assert pool.closed
    assert not [p.pid for p in procs if p.is_alive()]
    assert not os.path.exists(pool._spill_dir)


# Module-level unit bodies: sweep units must pickle to reach the pool.

def _value(v):
    return v


def _boom():
    raise ValueError("pool boom")


def _die():
    os._exit(23)


def _hang():
    time.sleep(60.0)


def _pid():
    return os.getpid()


def _stamp(delay):
    """Where and when the unit finished."""
    time.sleep(delay)
    return os.getpid(), time.monotonic()


def _note_then_hang(gate):
    from repro.telemetry import get_telemetry
    get_telemetry().event("unit.before.hang")
    open(gate, "w").close()
    time.sleep(60.0)


def _after_gate(gate, v):
    while not os.path.exists(gate):
        time.sleep(0.01)
    time.sleep(0.3)  # let the parent take the hanging unit's start first
    return v


class _KillsItsWorker:
    """Unpickling this kills the process that does it: a pool worker
    dies decoding the task, before it can send ``start``."""

    def __reduce__(self):
        return os._exit, (3,)


def _blob(nbytes):
    return b"r" * nbytes


def _blob_units(n, nbytes):
    return [SweepUnit(f"blob/{i}", functools.partial(_blob, nbytes))
            for i in range(n)]


def _units(n):
    return [SweepUnit(f"u/{i}", functools.partial(_value, i))
            for i in range(n)]


def _sweep_within(seconds, pool, units, jobs):
    """Run a sweep on a thread and fail, rather than hang, if it has not
    finished after ``seconds``."""
    done = {}
    thread = threading.Thread(
        target=lambda: done.update(result=run_sweep(units, jobs=jobs,
                                                    pool=pool)),
        daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"sweep still running after {seconds}s"
    return done["result"]


@needs_pool
class TestPoolEngine:
    def test_sweep_routes_through_pool_in_unit_order(self):
        with use_pool(get_pool(2)):
            result = run_sweep(_units(6), jobs=2)
        assert result.engine == "pool"
        assert result.values_strict() == [0, 1, 2, 3, 4, 5]

    def test_installed_pool_engages_even_at_jobs_1(self):
        with use_pool(get_pool(1)):
            result = run_sweep(_units(3), jobs=1)
        assert result.engine == "pool"
        assert result.values_strict() == [0, 1, 2]

    def test_closure_units_fall_back_off_the_pool(self):
        # A lambda cannot pickle; the dispatcher must not try to force
        # it through the pool.
        with use_pool(get_pool(2)):
            result = run_sweep([SweepUnit("c", lambda: 9)], jobs=1)
        assert result.engine == "serial"
        assert result.values_strict() == [9]

    def test_error_unit_fails_and_sweep_continues(self):
        units = [_units(1)[0], SweepUnit("boom", _boom), _units(1)[0]]
        with use_pool(get_pool(2)):
            result = run_sweep(units, jobs=2, retries=1)
        assert result.engine == "pool"
        assert [o.ok for o in result.outcomes] == [True, False, True]
        bad = result.outcomes[1]
        assert bad.failure.kind == FAIL_ERROR
        assert "pool boom" in bad.failure.message
        assert bad.attempts == 2  # one retry, then gave up

    def test_crashed_worker_respawns_and_unit_retries(self):
        units = [SweepUnit("die", _die)] + _units(2)
        pool = get_pool(2)
        with use_pool(pool):
            result = run_sweep(units, jobs=2, retries=1)
        assert result.engine == "pool"
        bad = result.outcomes[0]
        assert bad.failure.kind == FAIL_CRASH
        assert "exit code 23" in bad.failure.message
        assert bad.attempts == 2  # crashes are retried
        assert result.values() == [None, 0, 1]
        # the pool replaced the dead worker and stays at full strength
        assert pool.jobs == 2
        with use_pool(pool):
            again = run_sweep(_units(4), jobs=2)
        assert again.values_strict() == [0, 1, 2, 3]

    def test_task_that_kills_its_worker_before_start_fails_as_crash(self):
        # One free requeue, then each death is charged: with retries=1
        # the unit fails after three workers died unpickling it, instead
        # of respawning workers forever.
        pool = WorkerPool(1)
        units = [SweepUnit("killer", functools.partial(
            _value, _KillsItsWorker()))] + _units(2)
        done = {}
        thread = threading.Thread(target=lambda: done.update(
            result=run_sweep(units, jobs=1, pool=pool, retries=1)),
            daemon=True)
        thread.start()
        thread.join(30.0)
        if thread.is_alive():
            pool.abort()  # stop the respawn loop before failing
            pytest.fail("sweep still respawning workers after 30s")
        try:
            result = done["result"]
            bad = result.outcomes[0]
            assert bad.failure.kind == FAIL_CRASH
            assert "before starting the unit (exit code 3)" \
                in bad.failure.message
            assert bad.attempts == 2
            assert result.values() == [None, 0, 1]
            assert pool.jobs == 1
            assert all(p.is_alive() for p in _processes(pool))
            again = run_sweep(_units(3), jobs=1, pool=pool)
            assert again.values_strict() == [0, 1, 2]
        finally:
            pool.shutdown()

    def test_hanging_unit_times_out_without_retry(self):
        units = [SweepUnit("hang", _hang)] + _units(2)
        t0 = time.monotonic()
        with use_pool(get_pool(2)):
            result = run_sweep(units, jobs=2, timeout=0.5, retries=2)
        assert time.monotonic() - t0 < 30.0
        bad = result.outcomes[0]
        assert bad.failure.kind == FAIL_TIMEOUT
        assert bad.attempts == 1  # timeouts are not retried
        assert result.values() == [None, 0, 1]

    def test_idle_worker_runs_the_units_behind_a_slow_one(self):
        # One slow unit holds its worker; the fast units behind it must
        # all finish on the other worker before the slow one ends.
        pool = get_pool(2)
        units = [SweepUnit("slow", functools.partial(_stamp, 1.0))]
        units += [SweepUnit(f"fast/{i}", functools.partial(_stamp, 0.0))
                  for i in range(8)]
        with use_pool(pool):
            run_sweep(_units(2), jobs=2)  # both workers up and warm
            result = run_sweep(units, jobs=2)
        (slow_pid, slow_end), *fast = result.values_strict()
        assert [pid for pid, _ in fast if pid == slow_pid] == []
        assert max(end for _, end in fast) < slow_end

    def test_pool_gauges_set_on_parent_registry(self):
        with telemetry_session() as tel, use_pool(get_pool(2)):
            run_sweep(_units(4), jobs=2)
            snap = metrics_snapshot(tel)
        assert names.GAUGE_POOL_WORKERS_WARM in snap["gauges"]
        assert snap["gauges"][names.GAUGE_POOL_ARENA_BYTES] > 0

    def test_stats_count_reply_bytes(self):
        """Result payloads coming back over the pipes count toward the
        pool's payload bytes."""
        with WorkerPool(1) as pool:
            with use_pool(pool):
                result = run_sweep(_blob_units(4, 200_000), jobs=1)
            stats = pool.stats()
        assert result.engine == "pool"
        assert result.values_strict() == [b"r" * 200_000] * 4
        assert stats.arena_bytes >= 4 * 200_000
        assert stats.inline_fallbacks == 0

    def test_spawn_start_method_runs_units(self):
        with WorkerPool(2, start_method="spawn") as pool:
            with use_pool(pool):
                result = run_sweep(_units(4), jobs=2)
            assert result.engine == "pool"
            assert result.values_strict() == [0, 1, 2, 3]


@needs_pool
class TestWarmth:
    def test_workers_persist_and_warm_across_sweeps(self):
        pool = get_pool(2)
        with use_pool(pool):
            assert pool.warm_workers() == 0
            first = run_sweep(
                [SweepUnit(f"p/{i}", functools.partial(_pid, ))
                 for i in range(4)], jobs=2)
            warm_after_first = pool.warm_workers()
            second = run_sweep(
                [SweepUnit(f"q/{i}", functools.partial(_pid, ))
                 for i in range(4)], jobs=2)
        # each idle worker gets a task, so the first sweep ran on both
        assert len(set(first.values_strict())) == 2
        assert warm_after_first == 2
        # same processes served both sweeps: warm means *reused*
        assert set(second.values_strict()) <= set(first.values_strict())

    def test_warm_build_cache_hits_on_second_sweep(self):
        programs = all_programs()[:2]
        pool = get_pool(2)
        with use_pool(pool):
            figure4(programs, jobs=2)
            baseline = pool.stats().warm_builds
            figure4(programs, jobs=2)
            warmed = pool.stats().warm_builds
        assert warmed > baseline

    def test_registry_key_round_trips_programs(self):
        from repro.workloads import program_by_name
        for program in all_programs()[:5]:
            key = registry_key(program)
            assert key is not None
            assert program_by_name(key) is program


@needs_pool
class TestArenaLifecycle:
    """Pool teardown leaves nothing behind.  (The class and test names
    predate the pipe transport, when teardown also unlinked shared
    memory.)"""

    def test_no_leaked_shm_after_shutdown(self):
        pool = get_pool(2)
        with use_pool(pool):
            run_sweep(_units(4), jobs=2)
        procs = _processes(pool)
        assert all(p.is_alive() for p in procs)  # workers live while warm
        assert os.path.isdir(pool._spill_dir)
        shutdown_pool()
        _assert_torn_down(pool, procs)

    def test_no_leaked_shm_after_worker_crash(self):
        pool = get_pool(2)
        procs = _processes(pool)
        with use_pool(pool):
            result = run_sweep([SweepUnit("die", _die)] + _units(2),
                               jobs=2, retries=0)
        assert result.outcomes[0].failure.kind == FAIL_CRASH
        procs += _processes(pool)  # the respawned worker too
        shutdown_pool()
        _assert_torn_down(pool, procs)

    def test_no_leaked_shm_after_sigkill(self):
        # Workers killed while idle, between sweeps, are replaced when
        # the next sweep dispatches to them, and no unit is charged.
        for jobs in (1, 2):
            pool = get_pool(jobs)
            procs = _processes(pool)
            for proc in procs:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(5.0)
            result = _sweep_within(30.0, pool, _units(3), jobs)
            assert result.values_strict() == [0, 1, 2]
            assert [o.attempts for o in result.outcomes] == [1, 1, 1]
            assert pool.jobs == jobs
            assert all(p.is_alive() for p in _processes(pool))
            procs += _processes(pool)
            shutdown_pool()
            _assert_torn_down(pool, procs)

    def test_abort_harvests_and_unlinks(self, tmp_path, caplog):
        pool = WorkerPool(2)
        procs = _processes(pool)
        pool.abort()
        _assert_torn_down(pool, procs)
        # An interrupt mid-sweep aborts the pool and harvests the spill
        # of the unit that was still running.
        gate = str(tmp_path / "gate")
        units = [SweepUnit("hang", functools.partial(_note_then_hang, gate)),
                 SweepUnit("fast", functools.partial(_after_gate, gate, 1))]

        def interrupt(outcome):
            raise KeyboardInterrupt

        pool = WorkerPool(2)
        procs = _processes(pool)
        with caplog.at_level("WARNING", "repro.harness.pool"), \
                pytest.raises(KeyboardInterrupt):
            run_sweep(units, jobs=2, pool=pool, on_outcome=interrupt)
        _assert_torn_down(pool, procs)
        tails = [r.getMessage() for r in caplog.records
                 if "pool aborted; flight tail" in r.getMessage()]
        assert len(tails) == 1
        assert "unit.before.hang" in tails[0]
        # an aborted shared pool is replaced on the next request
        fresh = get_pool(2)
        with use_pool(fresh):
            assert run_sweep(_units(2), jobs=2).engine == "pool"


@needs_pool
class TestGoldenIdentity:
    """Pool sweeps must render byte-identical to the serial path."""

    def test_table4_identical_across_job_counts(self):
        programs = exception_programs()[:6]
        serial = table4(programs, jobs=1).render()
        with use_pool(get_pool(4)):
            for jobs in (1, 2, 4):
                result = table4(programs, jobs=jobs)
                assert result.render() == serial

    def test_merged_telemetry_equals_serial_with_live_server(self):
        programs = all_programs()[:4]
        with telemetry_session() as tel:
            serial = figure4(programs, jobs=1).measurements
            serial_snap = metrics_snapshot(tel)
            serial_spans = sorted(s.name for s in tel.spans)
        with telemetry_session() as tel:
            with MetricsServer(port=0) as server, \
                    use_pool(get_pool(2)):
                pooled = figure4(programs, jobs=2).measurements
                with urllib.request.urlopen(server.url + "/metrics",
                                            timeout=5.0) as resp:
                    body = resp.read().decode()
            pooled_snap = metrics_snapshot(tel)
            # the scrape we just made is server bookkeeping, not sweep
            # telemetry — drop it before comparing
            pooled_snap["counters"].pop("telemetry.server.scrapes", None)
            pooled_spans = sorted(s.name for s in tel.spans)
        assert [(s.fpx_slowdown, s.binfpe_slowdown, s.fpx_no_gt_slowdown)
                for s in serial] \
            == [(s.fpx_slowdown, s.binfpe_slowdown, s.fpx_no_gt_slowdown)
                for s in pooled]
        assert pooled_snap["counters"] == serial_snap["counters"]
        assert pooled_snap["histograms"] == serial_snap["histograms"]
        assert pooled_spans == serial_spans
        # the incremental merger retired every live worker slot
        assert "sweep-worker" not in body


@needs_pool
class TestSessionIntegration:
    def test_session_installs_and_releases_pool(self):
        from repro.api import Session
        with Session(pool=2) as session:
            pool = session.pool
            assert installed_pool() is pool
            result = run_sweep(_units(3), jobs=1)
            assert result.engine == "pool"
        assert session.pool is None
        assert installed_pool() is None
        # warm caches survive the session: same shared pool comes back
        assert get_pool() is pool

    def test_private_pool_install_uninstall(self):
        with WorkerPool(1) as pool:
            install_pool(pool)
            try:
                assert installed_pool() is pool
            finally:
                uninstall_pool(pool)
            assert installed_pool() is None
