"""Persistent, warm, work-stealing worker pool for the sweep engine.

Worker processes *outlive* sweeps, so the ~10 sweeps in a full
evaluation pay process startup once and reuse every decoded kernel:

- **warm caches.**  Workers keep a process-wide bare-decode store
  (:mod:`repro.nvbit.runtime`) and a :func:`warm_build` cache of
  compiled+laid-out programs, so the second sweep touching a program
  skips its compile/layout/decode entirely.  Warm hits replay the same
  telemetry a cold run would emit (build span + miss counter, device
  state restored to the post-build snapshot), so unit telemetry stays a
  pure function of the unit and jobs=1/2/4 renders remain
  byte-identical.
- **one pipe per worker.**  Task blobs go down and result payloads come
  back pickled over the worker's duplex pipe, alongside the control
  messages (start, steal, progress).  The pool counts the payload bytes
  in both directions (:attr:`PoolStats.arena_bytes`).
- **work stealing.**  Each worker prefetches up to
  :data:`PREFETCH_DEPTH` tasks into a local deque; when the global
  queue drains and a worker goes idle, the parent steals queued (never
  started) tasks back from the most-loaded worker and reassigns them,
  so one long-tail unit (myocyte) stops gating the sweep.
- **failure contract.**  Per-unit deadlines kill and respawn the worker
  (fresh spill file); crashes are attributed to the running unit with
  the flight-recorder spill tailed into diagnostics; queued-but-unstarted
  tasks are requeued without burning a retry.

Tasks must be *picklable* (module-level functions / ``functools.partial``
over plain data and registered programs) —
:func:`repro.harness.parallel.run_sweep` probes each unit and runs a
sweep that does not pickle in-process instead.  Because pickling is the
only coupling, the pool works under both the ``fork`` and the ``spawn``
start method.

Module-level lifecycle: :func:`get_pool` returns the process-wide pool
(created on first use, grown on demand, shut down at interpreter exit);
:func:`install_pool`/:func:`use_pool` pin an explicit pool for a scope
(``Session(pool=...)`` uses this); :func:`abort_pool` is the SIGINT
path — terminate workers, harvest flight spills into diagnostics.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
import traceback
from collections import OrderedDict, deque

from ..telemetry.flight import load_spill, render_flight

__all__ = [
    "WorkerPool",
    "PoolStats",
    "get_pool",
    "shutdown_pool",
    "install_pool",
    "uninstall_pool",
    "installed_pool",
    "use_pool",
    "abort_pool",
    "pool_available",
    "in_worker",
    "warm_build",
]

log = logging.getLogger("repro.harness.pool")

#: Tasks a worker may hold locally (1 running + N-1 prefetched).
PREFETCH_DEPTH = 2

# Failure kinds — mirror repro.harness.parallel.FAIL_* (string contract).
_FAIL_ERROR = "error"
_FAIL_TIMEOUT = "timeout"
_FAIL_CRASH = "crash"

# True inside a pool worker process: nested run_sweep calls go serial
# there instead of spawning pools-within-pools.
_IN_WORKER = False


def in_worker() -> bool:
    """Whether this process is a pool worker."""
    return _IN_WORKER


def pool_available() -> bool:
    """Whether any multiprocessing start method exists for the pool."""
    return bool(multiprocessing.get_all_start_methods())


# -- worker-side warm build cache -------------------------------------------

_WARM_BUILDS: "OrderedDict[tuple, object]" = OrderedDict()
_WARM_BUILD_CAP = int(os.environ.get("REPRO_WARM_BUILDS_CAP", "256"))
#: Worker-side warm-hit counters, shipped home in result metadata.
_WORKER_STATS = {"warm_builds": 0}


def warm_build(program, *, options=None, cost=None):
    """A :class:`~repro.harness.runner.BuiltProgram`, warm across units.

    Cold path: delegates to :func:`~repro.harness.runner.build_program`
    (build span + ``harness.build.cache.miss``).  Warm path: restores
    the cached build's device to its post-build snapshot and *replays
    the cold path's telemetry* — same span, same miss counter, uses
    reset to zero — so a unit's telemetry does not depend on which
    worker ran it or what ran before.  Results are bit-identical
    because the restored state IS the post-build snapshot.

    Keyed on (name, suite, options, cost) by ``repr``; reprs that are
    not value-bearing simply never match, degrading to always-cold.
    """
    from ..telemetry import get_telemetry
    from ..telemetry.names import CTR_BUILD_CACHE_MISS, SPAN_HARNESS_BUILD
    from .runner import build_program

    key = (program.name, program.suite, repr(options), repr(cost))
    built = _WARM_BUILDS.get(key)
    if built is None or built.program is not program:
        built = build_program(program, options=options, cost=cost)
        if _WARM_BUILD_CAP > 0:
            _WARM_BUILDS[key] = built
            while len(_WARM_BUILDS) > _WARM_BUILD_CAP:
                _WARM_BUILDS.popitem(last=False)
        return built
    _WARM_BUILDS.move_to_end(key)
    _WORKER_STATS["warm_builds"] += 1
    tel = get_telemetry()
    with tel.span(SPAN_HARNESS_BUILD, program=program.name,
                  suite=program.suite) as sp:
        built.device.restore_state(built._state)
        built._uses = 0
        sp.set(launches=len(built.schedule))
    tel.count(CTR_BUILD_CACHE_MISS)
    return built


def _warm_decode_hits() -> int:
    from ..nvbit.runtime import WARM_DECODE_STATS
    return WARM_DECODE_STATS["hits"]


# -- worker process ---------------------------------------------------------


def _pool_worker_main(conn, spill_path: str) -> None:
    """Worker loop: a main execution thread plus a pipe-reader thread.

    The reader unpickles incoming task blobs into a local deque and
    answers steal requests without blocking execution; the main thread
    pops tasks FIFO and runs them through
    :func:`~repro.harness.parallel._run_unit` (fresh registry, flight
    spill, progress ticker).
    """
    global _IN_WORKER
    _IN_WORKER = True
    # The parent orchestrates interrupts: a terminal Ctrl-C lands on the
    # whole process group, and workers dying before the parent can
    # harvest spills would turn a clean abort into lost diagnostics.
    # abort_pool() terminates us explicitly.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    from .parallel import SweepUnit, _run_unit

    local: deque = deque()
    cond = threading.Condition()
    state = {"stop": False}
    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def reader() -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            if msg is None:
                with cond:
                    state["stop"] = True
                    cond.notify()
                return
            kind = msg[0]
            if kind == "task":
                _, tid, blob, capture, push = msg
                try:
                    key, fn = pickle.loads(blob)
                    task = (tid, key, fn, capture, push)
                except Exception:
                    task = (tid, f"task-{tid}", None, capture, push)
                with cond:
                    local.append(task)
                    cond.notify()
            elif kind == "steal":
                k = msg[1]
                with cond:
                    got = [local.pop() for _ in range(min(k, len(local)))]
                send(("stolen", [t[0] for t in got]))

    threading.Thread(target=reader, daemon=True,
                     name="repro-pool-reader").start()

    def ship(tid: int, payload: tuple) -> None:
        try:
            data = pickle.dumps(payload, protocol=5)
        except Exception:
            # e.g. an unpicklable unit result: degrade to a unit error
            # (keeping the snapshot/duration/flight, which are plain
            # data) rather than poisoning the pipe.
            data = pickle.dumps(
                ("error", "sweep unit result could not be pickled:\n"
                 + traceback.format_exc(), *payload[2:]), protocol=5)
        meta = {"warm_builds": _WORKER_STATS["warm_builds"],
                "warm_decodes": _warm_decode_hits()}
        send(("result", tid, data, meta))

    while True:
        with cond:
            while not local and not state["stop"]:
                cond.wait()
            if not local:
                return  # stop requested and nothing left to run
            tid, key, fn, capture, push = local.popleft()
        send(("start", tid))
        if fn is None:
            payload = ("error",
                       f"pool task {key!r} could not be decoded in the "
                       "worker", None, 0.0, None)
        else:
            payload = _run_unit(SweepUnit(key, fn), capture, spill_path,
                                progress=send if push else None)
        ship(tid, payload)


# -- parent side ------------------------------------------------------------


class _PoolWorker:
    """One pool slot: process, duplex pipe, spill file."""

    _seq = 0

    def __init__(self, ctx, spill_dir: str) -> None:
        _PoolWorker._seq += 1
        self.spill_path = os.path.join(
            spill_dir, f"flight-{_PoolWorker._seq}.jsonl")
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_pool_worker_main, args=(child, self.spill_path),
            daemon=True, name="repro-pool-worker")
        self.proc.start()
        child.close()
        self.running: int | None = None   # started, in-flight task id
        self.queued: list[int] = []       # sent but not yet started
        self.deadline: float | None = None
        self.steal_pending = False
        self.tasks_done = 0
        self.meta = {"warm_builds": 0, "warm_decodes": 0}

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def load(self) -> int:
        return (self.running is not None) + len(self.queued)

    def destroy(self, *, kill: bool = False) -> None:
        """Stop the process and close its pipe."""
        try:
            if kill:
                self.proc.terminate()
            else:
                self.conn.send(None)
        except (OSError, ValueError):
            pass
        finally:
            with contextlib.suppress(OSError):
                self.conn.close()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - stubborn child
            self.proc.kill()
            self.proc.join(timeout=5.0)


class PoolStats:
    """Point-in-time pool health, exposed for benchmarks and gauges."""

    #: Always 0: every payload travels on the pipe, so none falls back.
    #: Kept because benchmark records read it.
    inline_fallbacks = 0

    def __init__(self, workers: int, warm_workers: int, steals: int,
                 warm_builds: int, warm_decodes: int,
                 arena_bytes: int) -> None:
        self.workers = workers
        #: Workers that had already completed work before this sweep.
        self.warm_workers = warm_workers
        #: Steal reassignments during the most recent sweep.
        self.steals = steals
        self.warm_builds = warm_builds
        self.warm_decodes = warm_decodes
        #: Task and result payload bytes over the pool's pipes (both
        #: directions), over the pool's lifetime.
        self.arena_bytes = arena_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PoolStats(workers={self.workers}, "
                f"warm_workers={self.warm_workers}, "
                f"steals={self.steals}, warm_builds={self.warm_builds}, "
                f"warm_decodes={self.warm_decodes}, "
                f"arena_bytes={self.arena_bytes})")


class WorkerPool:
    """Long-lived worker processes shared by every sweep in a process.

    ``start_method=None`` consults the ``REPRO_POOL_START_METHOD``
    environment variable (how CI exercises the spawn lane on fork
    platforms), then picks ``fork`` when available, else ``spawn``
    (loudly logged, since spawn workers pay an import on first spin-up).
    The pool only ever *grows* — ``ensure_workers`` adds slots, a sweep
    that asks for fewer simply leaves the extras idle-but-warm.
    """

    def __init__(self, jobs: int = 1, *,
                 start_method: str | None = None) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            forced = os.environ.get("REPRO_POOL_START_METHOD")
            if forced:
                if forced not in methods:
                    raise ValueError(
                        f"REPRO_POOL_START_METHOD={forced!r} is not "
                        f"available here (have: {', '.join(methods)})")
                start_method = forced
            else:
                start_method = "fork" if "fork" in methods else "spawn"
                if start_method == "spawn":  # pragma: no cover - non-fork OS
                    log.warning("fork unavailable; pool workers use spawn "
                                "(first spin-up pays a fresh interpreter)")
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._spill_dir = tempfile.mkdtemp(prefix="repro-pool-flight-")
        self._workers: list[_PoolWorker] = []
        self._closed = False
        self.busy = False
        self.sweeps = 0
        self.steals_last_sweep = 0
        self._payload_bytes = 0
        self.ensure_workers(jobs)

    # -- sizing ------------------------------------------------------------

    @property
    def jobs(self) -> int:
        return len(self._workers)

    def ensure_workers(self, jobs: int) -> None:
        """Grow to at least ``jobs`` workers (never shrinks)."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        while len(self._workers) < max(1, jobs):
            self._workers.append(self._spawn())

    def _spawn(self) -> _PoolWorker:
        return _PoolWorker(self._ctx, self._spill_dir)

    def warm_workers(self) -> int:
        """Workers that have already completed at least one unit — the
        population whose decode/build caches are hot.  Sampled *before*
        a sweep, this is how warm the pool was when the sweep started
        (the ``pool.workers.warm`` gauge)."""
        return sum(1 for w in self._workers if w.tasks_done)

    def stats(self) -> PoolStats:
        return PoolStats(
            workers=len(self._workers),
            warm_workers=sum(1 for w in self._workers if w.tasks_done),
            steals=self.steals_last_sweep,
            warm_builds=sum(w.meta["warm_builds"] for w in self._workers),
            warm_decodes=sum(w.meta["warm_decodes"]
                             for w in self._workers),
            arena_bytes=self._payload_bytes)

    # -- the sweep loop ----------------------------------------------------

    def run_units(self, blobs: list[bytes], *,
                  timeout: float | None, retries: int, collector,
                  capture: bool, push: bool) -> None:
        """Drive ``blobs`` to completion, reporting into ``collector``.

        ``collector`` is the scheduling-policy-free half of the sweep
        (:class:`repro.harness.parallel._Collector`): it owns outcomes,
        retry budgets, live publication and the incremental telemetry
        merge; this loop owns workers, pipes, deadlines and stealing.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        if self.busy:
            raise RuntimeError("worker pool is already running a sweep")
        self.busy = True
        self.sweeps += 1
        steals = 0
        n = len(blobs)
        pending: deque[int] = deque(range(n))
        workers = self._workers
        for w in workers:  # stale bookkeeping from an aborted sweep
            w.running = None
            w.queued = []
            w.deadline = None
            w.steal_pending = False
        try:
            while collector.done < n:
                self._dispatch(pending, blobs, capture, push)
                if not pending:
                    steals += self._request_steals()
                collector.publish_parent(
                    sum(1 for w in workers if w.running is not None))
                busy = [w for w in workers if w.load or w.steal_pending]
                if not busy:  # pragma: no cover - defensive
                    if not pending:
                        break
                    continue
                wait_for = None
                now = time.monotonic()
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                if deadlines:
                    wait_for = max(0.0, min(deadlines) - now)
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], timeout=wait_for)
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    self._drain(by_conn[conn], pending, timeout,
                                collector)
                now = time.monotonic()
                for w in list(workers):
                    if w.running is None or w.deadline is None \
                            or now < w.deadline:
                        continue
                    self._timeout(w, pending, timeout, collector)
        finally:
            self.busy = False
            self.steals_last_sweep = steals

    def _dispatch(self, pending: deque, blobs: list[bytes],
                  capture: bool, push: bool) -> None:
        progress = True
        while pending and progress:
            progress = False
            for w in self._workers:
                if not pending or w.load >= PREFETCH_DEPTH \
                        or not w.proc.is_alive():
                    continue
                tid = pending.popleft()
                try:
                    w.conn.send(("task", tid, blobs[tid], capture, push))
                except (OSError, ValueError):
                    # Crash will surface as EOF on the next wait; put
                    # the task back so nothing is lost meanwhile.
                    pending.appendleft(tid)
                    continue
                self._payload_bytes += len(blobs[tid])
                w.queued.append(tid)
                progress = True

    def _request_steals(self) -> int:
        """Rebalance: ask loaded workers to give queued tasks back."""
        requested = 0
        idle = [w for w in self._workers
                if w.load == 0 and w.proc.is_alive()]
        if not idle:
            return 0
        for _ in idle:
            victims = [w for w in self._workers
                       if w.queued and not w.steal_pending]
            if not victims:
                break
            victim = max(victims, key=lambda w: len(w.queued))
            try:
                victim.conn.send(("steal", 1))
            except (OSError, ValueError):
                continue
            victim.steal_pending = True
            requested += 1
        return requested

    def _drain(self, w: _PoolWorker, pending: deque,
               timeout: float | None, collector) -> None:
        while True:
            try:
                if not w.conn.poll():
                    return
                msg = w.conn.recv()
            except (EOFError, OSError):
                self._crash(w, pending, collector)
                return
            kind = msg[0]
            if kind == "progress":
                collector.publish_worker(w.pid, msg[1])
            elif kind == "start":
                tid = msg[1]
                if tid in w.queued:
                    w.queued.remove(tid)
                w.running = tid
                w.deadline = (time.monotonic() + timeout) \
                    if timeout is not None else None
                collector.begin_attempt(tid)
            elif kind == "stolen":
                w.steal_pending = False
                for tid in msg[1]:
                    if tid in w.queued:
                        w.queued.remove(tid)
                        pending.append(tid)
            elif kind == "result":
                _, tid, data, w.meta = msg
                self._payload_bytes += len(data)
                try:
                    payload = pickle.loads(data)
                except Exception:
                    payload = (_FAIL_ERROR,
                               "pool result payload could not be "
                               "decoded:\n" + traceback.format_exc(),
                               None, 0.0, None)
                w.running = None
                w.deadline = None
                w.tasks_done += 1
                collector.retract_worker(w.pid)
                status, value, snapshot, duration, flight = payload
                if status == "ok":
                    collector.finish(tid, ok=True, value=value,
                                     snapshot=snapshot, duration=duration)
                elif collector.attempt_failed(tid, _FAIL_ERROR, value,
                                              snapshot=snapshot,
                                              duration=duration,
                                              flight=flight):
                    pending.append(tid)

    def _reclaim(self, w: _PoolWorker, pending: deque) -> None:
        """Requeue queued-but-unstarted tasks of a dead worker."""
        if w.queued:
            pending.extendleft(reversed(w.queued))
            w.queued = []

    def _replace(self, w: _PoolWorker) -> None:
        slot = self._workers.index(w)
        self._workers[slot] = self._spawn()

    def _crash(self, w: _PoolWorker, pending: deque, collector) -> None:
        w.proc.join(1.0)  # reap, so the exit code lands in diagnostics
        code = w.proc.exitcode
        flight = load_spill(w.spill_path)
        collector.retract_worker(w.pid)
        tid = w.running
        self._reclaim(w, pending)
        w.destroy(kill=True)
        self._replace(w)
        if tid is not None and collector.attempt_failed(
                tid, _FAIL_CRASH,
                f"worker process died mid-unit (exit code {code})",
                flight=flight):
            pending.append(tid)

    def _timeout(self, w: _PoolWorker, pending: deque,
                 timeout: float | None, collector) -> None:
        tid = w.running
        collector.retract_worker(w.pid)
        self._reclaim(w, pending)
        w.destroy(kill=True)
        flight = load_spill(w.spill_path)
        self._replace(w)
        collector.attempt_failed(
            tid, _FAIL_TIMEOUT,
            f"unit exceeded its {timeout:g}s timeout", flight=flight)

    # -- lifecycle ---------------------------------------------------------

    def harvest_spills(self) -> dict[str, list]:
        """Flight records left behind by current workers' last units."""
        out = {}
        for w in self._workers:
            records = load_spill(w.spill_path)
            if records:
                out[os.path.basename(w.spill_path)] = records
        return out

    def shutdown(self) -> None:
        """Graceful stop: drain-free exit, remove spills."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            w.destroy(kill=w.running is not None or self.busy)
        self._workers = []
        shutil.rmtree(self._spill_dir, ignore_errors=True)

    def abort(self) -> dict[str, list]:
        """Hard stop (SIGINT path): kill workers, harvest diagnostics.

        Returns the harvested flight spills — the last recorded moments
        of whatever the workers were doing — after logging a rendered
        tail, so an interrupted sweep leaves evidence instead of
        orphaned temp files.
        """
        if self._closed:
            return {}
        self._closed = True
        spills = {}
        for w in self._workers:
            with contextlib.suppress(Exception):
                w.proc.terminate()
        for w in self._workers:
            if w.running is not None:
                records = load_spill(w.spill_path)
                if records:
                    spills[os.path.basename(w.spill_path)] = records
            w.destroy(kill=True)
        self._workers = []
        shutil.rmtree(self._spill_dir, ignore_errors=True)
        for name, records in spills.items():
            log.warning("pool aborted; flight tail from %s:\n%s", name,
                        render_flight(records, limit=5))
        return spills

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


# -- module-level lifecycle --------------------------------------------------

_POOL: WorkerPool | None = None
_INSTALLED: list[WorkerPool] = []
_atexit_registered = False


def get_pool(jobs: int | None = None, *,
             start_method: str | None = None) -> WorkerPool:
    """The process-wide pool, created on first use and grown on demand."""
    global _POOL, _atexit_registered
    from .parallel import default_jobs
    if jobs is None:
        jobs = default_jobs()
    if _POOL is None or _POOL.closed:
        _POOL = WorkerPool(jobs, start_method=start_method)
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(shutdown_pool)
    else:
        _POOL.ensure_workers(jobs)
    return _POOL


def shutdown_pool() -> None:
    """Stop the process-wide pool (idempotent; also runs at exit)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def abort_pool(pool: WorkerPool) -> dict[str, list]:
    """Tear ``pool`` down hard; forget it if it was the shared one."""
    global _POOL
    if pool is _POOL:
        _POOL = None
    while pool in _INSTALLED:
        _INSTALLED.remove(pool)
    return pool.abort()


def install_pool(pool: WorkerPool) -> None:
    """Pin ``pool`` as the default for subsequent ``run_sweep`` calls."""
    _INSTALLED.append(pool)


def uninstall_pool(pool: WorkerPool) -> None:
    while pool in _INSTALLED:
        _INSTALLED.remove(pool)


def installed_pool() -> WorkerPool | None:
    """The innermost explicitly-installed (and still live) pool."""
    while _INSTALLED and _INSTALLED[-1].closed:
        _INSTALLED.pop()
    return _INSTALLED[-1] if _INSTALLED else None


@contextlib.contextmanager
def use_pool(pool: WorkerPool):
    """Scope-install a pool: every ``run_sweep`` inside reuses it."""
    install_pool(pool)
    try:
        yield pool
    finally:
        uninstall_pool(pool)
