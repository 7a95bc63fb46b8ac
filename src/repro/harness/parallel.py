"""Sweep dispatch: in-process serial, or the persistent worker pool.

The paper's headline artifacts (Figures 4-6, Tables 4-7) are sweeps of
151 workloads under four configurations each — ~600 independent program
runs.  The simulator is share-nothing per run (each gets its own
``Device`` and ``ToolRuntime``), so the sweep is embarrassingly
parallel; :func:`run_sweep` shards :class:`SweepUnit` work units across
worker processes and reduces the results *in unit order*, so tables and
figures render byte-identically regardless of completion order.

This module is the **dispatch layer** over two engines:

- **pool** (:mod:`repro.harness.pool`) — every multi-job sweep whose
  units pickle (module-level functions / partials over plain data and
  registered programs).  Workers persist *across* sweeps with warm
  decode/build caches, tasks and results travel pickled over each
  worker's pipe, idle workers steal queued tasks from loaded ones, and
  worker telemetry streams into the deterministic unit-order merge as
  units finish (:class:`repro.telemetry.snapshot.IncrementalMerger`)
  instead of at an end-of-sweep barrier.  An explicitly installed pool
  (``Session(pool=...)``, :func:`repro.harness.pool.use_pool`) is used
  even at ``jobs=1``.
- **serial** — in-process, no timeout enforcement: ``jobs<=1`` (without
  an installed pool), nested sweeps inside pool workers, and sweeps
  whose units do not pickle (the reason is logged).

Contract points of the pool engine:

- **one pipe per worker** — the parent always knows which unit a worker
  holds, so a worker that dies mid-unit (segfault, ``os._exit``,
  OOM-kill) is attributed precisely: the unit is marked failed (or
  retried) and the sweep continues with a respawned worker.
- **per-unit timeout** — a unit that exceeds ``timeout`` seconds gets
  its worker terminated and is marked failed; the pool is replenished
  and the sweep continues.  Timed-out units are not retried — a hang
  would just burn the deadline twice.
- **bounded retry** — crashed and raising units are retried up to
  ``retries`` extra attempts (transient failures — an OOM-killed
  worker, a flaky filesystem — heal; deterministic bugs fail with their
  traceback after the last attempt).
- **telemetry fan-in** — each worker runs its unit under a fresh
  registry and ships a snapshot back (see
  :mod:`repro.telemetry.snapshot`); the parent merges snapshots in unit
  order, so ``--trace``/``--events``/``--metrics`` from a parallel
  sweep match a serial run.
- **flight recording** — workers always run units under a fresh
  registry whose flight ring spills to a per-worker JSONL file, so a
  unit that kills its worker outright (SIGKILL, OOM) still ships its
  last-moments ring back: the parent tails the spill and attaches it to
  the failure record (:attr:`UnitOutcome.flight`, and the
  ``sweep.unit_failed`` event).
- **live progress** — when the parent registry is enabled or a metrics
  server is up, workers push periodic registry snapshots and the parent
  publishes them as *live contributions*
  (:func:`repro.telemetry.snapshot.publish_live`), so a ``/metrics``
  scrape mid-sweep reflects in-flight per-unit counters; contributions
  are retracted as their data reaches the real registry through the
  incremental merge, so nothing is double-counted.
- **interrupt hygiene** — a ``KeyboardInterrupt`` mid-sweep tears the
  pool down before propagating: workers terminated, flight spills
  harvested into diagnostics.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..telemetry import (
    get_telemetry,
    snapshot_registry,
    telemetry_session,
)
from ..telemetry.flight import render_flight
from ..telemetry.names import (
    CTR_SWEEP_RETRIES,
    CTR_SWEEP_UNITS_FAILED,
    CTR_SWEEP_UNITS_OK,
    EVT_SWEEP_UNIT_FAILED,
    GAUGE_POOL_ARENA_BYTES,
    GAUGE_POOL_WORKERS_WARM,
    GAUGE_SWEEP_INFLIGHT,
    GAUGE_SWEEP_STEALS,
    SPAN_SWEEP,
)
from ..telemetry.server import any_active
from ..telemetry.snapshot import (
    IncrementalMerger,
    publish_live,
    retract_live,
)

__all__ = [
    "SweepUnit",
    "UnitFailure",
    "UnitOutcome",
    "SweepResult",
    "SweepError",
    "run_sweep",
    "default_jobs",
]

log = logging.getLogger("repro.harness.parallel")

#: Failure kinds reported per unit.
FAIL_ERROR = "error"      # the unit raised; message is the traceback
FAIL_TIMEOUT = "timeout"  # the unit exceeded its deadline
FAIL_CRASH = "crash"      # the worker process died mid-unit


@dataclass(frozen=True)
class SweepUnit:
    """One schedulable piece of work.

    ``fn`` must pickle to run on the pool (a module-level function, or a
    ``functools.partial`` over plain data and registered programs), and
    must return a *picklable* value; a sweep with any unit that does not
    pickle runs in-process.  ``key`` is a stable human-readable label
    used in failure reports and telemetry events.
    """

    key: str
    fn: Callable[[], Any]


@dataclass(frozen=True)
class UnitFailure:
    """Why a unit ultimately failed."""

    kind: str      # FAIL_ERROR | FAIL_TIMEOUT | FAIL_CRASH
    message: str   # traceback text (error) or a one-line description

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class UnitOutcome:
    """The terminal state of one unit, in the order it was submitted."""

    index: int
    key: str
    ok: bool
    value: Any = None
    failure: UnitFailure | None = None
    attempts: int = 1
    duration: float = 0.0
    #: Worker telemetry snapshot (final attempt), merged by the sweep.
    snapshot: dict | None = None
    #: The worker's flight-recorder ring (failures only): the last
    #: moments before the unit raised, timed out, or killed its worker.
    flight: list | None = None


@dataclass
class SweepResult:
    """All unit outcomes, in submission order."""

    outcomes: list[UnitOutcome]
    jobs: int
    elapsed: float = 0.0
    #: Which engine ran the sweep: "serial" (in-process) or "pool"
    #: (the persistent warm worker pool).
    engine: str = "serial"

    @property
    def failures(self) -> list[UnitOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def values(self) -> list[Any]:
        """Per-unit values in submission order; ``None`` for failures."""
        return [o.value if o.ok else None for o in self.outcomes]

    def values_strict(self) -> list[Any]:
        """Per-unit values; raises :class:`SweepError` on any failure."""
        if self.failures:
            raise SweepError(self.failures)
        return [o.value for o in self.outcomes]


class SweepError(RuntimeError):
    """Raised by strict consumers when a sweep had failed units."""

    def __init__(self, failures: Sequence[UnitOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep unit(s) failed:"]
        for o in self.failures:
            first = o.failure.message.strip().splitlines()
            lines.append(f"  - {o.key} ({o.failure.kind}, "
                         f"{o.attempts} attempt(s)): "
                         f"{first[-1] if first else ''}")
            if o.flight:
                lines.append(f"    last flight-recorder moments "
                             f"({len(o.flight)} records):")
                lines.extend(
                    "  " + ln for ln in
                    render_flight(o.flight, limit=5).splitlines())
        super().__init__("\n".join(lines))


def default_jobs() -> int:
    """The CLI default for ``--jobs``: every core the process may use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- worker side -----------------------------------------------------------

#: Seconds between worker progress pushes (when anyone is listening).
PROGRESS_INTERVAL = 0.5


class _ProgressTicker:
    """A daemon thread pushing periodic registry snapshots up the pipe."""

    def __init__(self, tel, send: Callable[[tuple], None],
                 interval: float = PROGRESS_INTERVAL) -> None:
        self._tel = tel
        self._send = send
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-sweep-progress")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._send(("progress", snapshot_registry(self._tel)))
            except Exception:
                return  # parent gone or pipe broken: stop pushing


def _run_unit(unit: SweepUnit, capture_telemetry: bool,
              spill_path: str | None = None,
              progress: Callable[[tuple], None] | None = None) -> tuple:
    """Execute one unit under a fresh registry.

    Returns ``("ok" | "error", value, snapshot, duration, flight)``.
    The unit *always* runs with telemetry enabled so its flight ring is
    live (and spilling to ``spill_path``, which survives a SIGKILL);
    the full snapshot ships back only when the parent captures, and the
    in-memory flight ring ships back only on error.
    """
    t0 = time.perf_counter()
    snapshot = None
    # Ship the final snapshot when the parent merges telemetry *or*
    # only watches live (a /metrics server with telemetry disabled).
    ship = capture_telemetry or progress is not None
    with telemetry_session() as tel:
        if spill_path:
            tel.flight.spill_to(spill_path)
        ticker = _ProgressTicker(tel, progress) \
            if progress is not None else None
        try:
            if ticker is not None:
                ticker.start()
            value = unit.fn()
        except BaseException:
            if ship:
                snapshot = snapshot_registry(tel)
            return ("error", traceback.format_exc(), snapshot,
                    time.perf_counter() - t0, tel.flight.snapshot())
        finally:
            if ticker is not None:
                ticker.stop()
            tel.flight.close_spill()
        if ship:
            snapshot = snapshot_registry(tel)
    return ("ok", value, snapshot, time.perf_counter() - t0, None)


# -- parent side -----------------------------------------------------------


def run_sweep(units: Sequence[SweepUnit], *, jobs: int | None = None,
              timeout: float | None = None, retries: int = 1,
              on_outcome: Callable[[UnitOutcome], None] | None = None,
              pool=None) -> SweepResult:
    """Run ``units`` across ``jobs`` worker processes.

    Returns a :class:`SweepResult` whose outcomes are in submission
    order.  Unit failures never raise — a crashed, raising or timed-out
    unit becomes a failed outcome and the sweep continues; strict
    consumers call :meth:`SweepResult.values_strict`.

    Engine selection (reported in :attr:`SweepResult.engine`): sweeps
    whose units pickle run on the **persistent warm worker pool**
    (:mod:`repro.harness.pool`) — the process-wide pool by default, or
    ``pool=`` / an installed pool (``Session(pool=...)``,
    :func:`repro.harness.pool.use_pool`), which is honoured even at
    ``jobs=1`` so pool overhead can be measured.  ``jobs=None`` means
    :func:`default_jobs`; ``jobs<=1`` with no installed pool, a single
    unit, a nested sweep inside a pool worker, or any unit that does
    not pickle takes the in-process **serial** path (no timeout
    enforcement).

    ``timeout`` is a per-unit deadline in seconds; ``None`` disables it,
    ``0`` means "already expired" (every pooled unit times out — useful
    only for testing the deadline machinery), and negative values are
    rejected.  Worker telemetry is captured and merged only when the
    active registry is enabled, so disabled runs pay no snapshot cost.
    """
    if timeout is not None and timeout < 0:
        raise ValueError(f"timeout must be >= 0 or None, got {timeout!r}")
    units = list(units)
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(units) or 1))
    tel = get_telemetry()
    engine, runner = _select_engine(units, jobs, timeout, retries,
                                    on_outcome, pool)
    with tel.span(SPAN_SWEEP, units=len(units), jobs=jobs,
                  timeout=timeout, retries=retries, engine=engine) as sp:
        t0 = time.monotonic()
        result = runner()
        result.elapsed = time.monotonic() - t0
        _account(tel, result)
        sp.set(failed=len(result.failures))
    return result


def _pickle_units(units: list[SweepUnit]) -> tuple[list[bytes], str]:
    """Pickle every unit as a ``(key, fn)`` task blob.

    Returns ``(blobs, "")``, or ``([], reason)`` naming the first unit
    that does not pickle — the one gate between the pool and the
    in-process path.
    """
    blobs = []
    for unit in units:
        try:
            blobs.append(pickle.dumps((unit.key, unit.fn), protocol=5))
        except Exception as exc:
            return [], (f"unit {unit.key!r} does not pickle "
                        f"({type(exc).__name__}: {exc})")
    return blobs, ""


def _select_engine(units: list[SweepUnit], jobs: int,
                   timeout: float | None, retries: int, on_outcome,
                   pool) -> tuple[str, Callable[[], SweepResult]]:
    """Pick serial / pool for this sweep; returns (name, runner)."""
    from . import pool as pool_mod

    def serial() -> SweepResult:
        return _run_serial(units, retries, on_outcome)

    if pool_mod.in_worker():
        # Nested sweeps inside a pool worker run inline: a pool spawning
        # pools would oversubscribe the machine and deadlock shutdown.
        return "serial", serial
    explicit = pool if pool is not None else pool_mod.installed_pool()
    if explicit is not None and explicit.closed:
        explicit = None
    if not units or (jobs <= 1 and explicit is None):
        return "serial", serial
    blobs, reason = _pickle_units(units)
    if not reason:
        p = explicit if explicit is not None else pool_mod.get_pool(jobs)
        if not p.busy:
            p.ensure_workers(jobs)
            return "pool", lambda: _run_pooled(
                p, units, blobs, jobs, timeout, retries, on_outcome)
        reason = "the pool is already running a sweep (re-entrant call)"
    log.info("running %d sweep unit(s) in-process: %s", len(units),
             reason)
    return "serial", serial


def _account(tel, result: SweepResult) -> None:
    ok = len(result.outcomes) - len(result.failures)
    if ok:
        tel.count(CTR_SWEEP_UNITS_OK, ok)
    if result.failures:
        tel.count(CTR_SWEEP_UNITS_FAILED, len(result.failures))
    retries = sum(o.attempts - 1 for o in result.outcomes)
    if retries:
        tel.count(CTR_SWEEP_RETRIES, retries)
    for o in result.failures:
        tel.event(EVT_SWEEP_UNIT_FAILED, key=o.key, kind=o.failure.kind,
                  attempts=o.attempts, error=o.failure.message,
                  flight=list(o.flight[-50:]) if o.flight else [])


def _run_serial(units: list[SweepUnit], retries: int,
                on_outcome) -> SweepResult:
    """The ``--jobs 1`` path: in-process, reporting into the active
    registry directly (no snapshot round-trip, no timeout)."""
    outcomes = []
    for i, unit in enumerate(units):
        outcome = None
        for attempt in range(1, retries + 2):
            t0 = time.perf_counter()
            try:
                value = unit.fn()
            except BaseException:
                outcome = UnitOutcome(
                    i, unit.key, ok=False, attempts=attempt,
                    duration=time.perf_counter() - t0,
                    failure=UnitFailure(FAIL_ERROR, traceback.format_exc()))
                continue
            outcome = UnitOutcome(i, unit.key, ok=True, value=value,
                                  attempts=attempt,
                                  duration=time.perf_counter() - t0)
            break
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
    return SweepResult(outcomes, jobs=1)


class _Collector:
    """The scheduling-free half of a pooled sweep.

    Owns outcomes, retry budgets, live ``/metrics`` publication and the
    deterministic unit-order telemetry merge; the pool's ``run_units``
    loop owns workers, pipes, deadlines and scheduling, and reports
    attempts in through :meth:`begin_attempt` / :meth:`finish` /
    :meth:`attempt_failed`.

    Worker snapshots stream into the parent registry through an
    :class:`~repro.telemetry.snapshot.IncrementalMerger`: merge order is
    unit-submission order (what keeps jobs=1/2/4 renders byte-
    identical), but the merge happens as the contiguous frontier
    completes rather than at an end-of-sweep barrier — so a ``/metrics``
    scrape mid-sweep sees finished units' counters in the *real*
    registry and only the out-of-order tail as live contributions.
    """

    def __init__(self, units: list[SweepUnit], retries: int,
                 on_outcome) -> None:
        tel = get_telemetry()
        self.units = units
        self.retries = retries
        #: Capture worker snapshots into outcomes / the registry merge.
        self.capture = tel.enabled
        #: Push live progress when anyone can observe it: the parent
        #: registry is enabled, or a /metrics server is serving.
        self.push = self.capture or any_active()
        self.outcomes: list[UnitOutcome | None] = [None] * len(units)
        self.attempts = [0] * len(units)
        self.done = 0
        self._on_outcome = on_outcome
        self._live: set[str] = set()
        self._merger = IncrementalMerger(tel) if self.capture else None

    def begin_attempt(self, index: int) -> None:
        """A worker actually *started* unit ``index`` (not merely had it
        queued) — so stolen-back tasks never count as retries."""
        self.attempts[index] += 1

    # -- live publication --------------------------------------------------

    def publish_parent(self, inflight: int) -> None:
        """Live sweep-health counters for mid-sweep scrapes (retracted
        before the real registry gets them in :func:`_account`)."""
        if not self.push:
            return
        ok = sum(1 for o in self.outcomes if o is not None and o.ok)
        fail = sum(1 for o in self.outcomes if o is not None and not o.ok)
        again = sum(max(0, a - 1) for a in self.attempts)
        counters = {name: n for name, n in (
            (CTR_SWEEP_UNITS_OK, ok),
            (CTR_SWEEP_UNITS_FAILED, fail),
            (CTR_SWEEP_RETRIES, again)) if n}
        publish_live("sweep-parent", {
            "counters": counters,
            "gauges": {GAUGE_SWEEP_INFLIGHT: inflight},
        })
        self._live.add("sweep-parent")

    def publish_worker(self, pid: int, snap: dict) -> None:
        """A mid-unit progress snapshot from a busy worker."""
        key = f"sweep-worker-{pid}"
        publish_live(key, snap)
        self._live.add(key)

    def retract_worker(self, pid: int) -> None:
        key = f"sweep-worker-{pid}"
        retract_live(key)
        self._live.discard(key)

    # -- outcome reporting -------------------------------------------------

    def attempt_failed(self, index: int, kind: str, message: str,
                       snapshot: dict | None = None,
                       duration: float = 0.0,
                       flight: list | None = None) -> bool:
        """One attempt of unit ``index`` failed.

        Returns ``True`` when the engine should requeue the unit for
        another attempt; otherwise the failure was terminal and has been
        recorded through :meth:`finish`.
        """
        retryable = kind in (FAIL_ERROR, FAIL_CRASH)
        if retryable and self.attempts[index] <= self.retries:
            log.info("sweep unit %s failed (%s); retrying (%d/%d)",
                     self.units[index].key, kind, self.attempts[index],
                     self.retries + 1)
            return True
        self.finish(index, ok=False, kind=kind, message=message,
                    snapshot=snapshot, duration=duration, flight=flight)
        return False

    def finish(self, index: int, *, ok: bool, value: Any = None,
               kind: str | None = None, message: str | None = None,
               snapshot: dict | None = None, duration: float = 0.0,
               flight: list | None = None) -> None:
        """Unit ``index`` reached its terminal state."""
        outcome = UnitOutcome(
            index, self.units[index].key, ok=ok,
            value=value if ok else None,
            attempts=self.attempts[index], duration=duration,
            snapshot=snapshot if self.capture else None, flight=flight,
            failure=None if ok else UnitFailure(kind, message))
        self.outcomes[index] = outcome
        self.done += 1
        if self.push and snapshot:
            # Keep the completed unit's counters visible to scrapes
            # until the deterministic merge reaches it (below).
            key = f"sweep-unit-{index:06d}"
            publish_live(key, snapshot)
            self._live.add(key)
        if self._merger is not None:
            for merged in self._merger.offer(index, outcome.snapshot):
                done_outcome = self.outcomes[merged]
                if done_outcome is not None:
                    done_outcome.snapshot = None
                key = f"sweep-unit-{merged:06d}"
                retract_live(key)
                self._live.discard(key)
        if self._on_outcome is not None:
            self._on_outcome(outcome)

    def result(self, jobs: int) -> SweepResult:
        return SweepResult([o for o in self.outcomes if o is not None],
                           jobs=jobs, engine="pool")

    def close(self) -> None:
        """Whatever happened, leave no live contributions behind: the
        data either reached the real registry (the incremental merge,
        then :func:`_account`) or belongs to a sweep that no longer
        exists."""
        for key in list(self._live):
            retract_live(key)
        self._live.clear()


def _run_pooled(p, units: list[SweepUnit], blobs: list[bytes], jobs: int,
                timeout: float | None, retries: int,
                on_outcome) -> SweepResult:
    """Run the sweep on the persistent warm pool ``p``."""
    from . import pool as pool_mod
    collector = _Collector(units, retries, on_outcome)
    warm = p.warm_workers()
    try:
        p.run_units(blobs, timeout=timeout, retries=retries,
                    collector=collector, capture=collector.capture,
                    push=collector.push)
    except BaseException:
        # SIGINT or any parent-side failure mid-sweep: tear the pool
        # down — workers terminated, spill files harvested into
        # diagnostics — before propagating.
        pool_mod.abort_pool(p)
        raise
    finally:
        collector.close()
    tel = get_telemetry()
    if tel.enabled:
        stats = p.stats()
        tel.gauge(GAUGE_SWEEP_STEALS, p.steals_last_sweep)
        tel.gauge(GAUGE_POOL_WORKERS_WARM, warm)
        tel.gauge(GAUGE_POOL_ARENA_BYTES, stats.arena_bytes)
    return collector.result(jobs)
