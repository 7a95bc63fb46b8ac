"""The job service: queue, executor, cache, batching, telemetry.

One dispatcher/executor thread owns all job execution.  That is a
deliberate design, not a limitation: the process-global telemetry
registry can only be swapped by one executor at a time (each job runs
under its own :func:`~repro.telemetry.telemetry_session`, and its
snapshot merges into the long-lived service registry afterwards), and
the simulator is pure Python, so thread-level parallelism would buy
nothing under the GIL anyway.  Throughput instead comes from

- the **result cache** (:mod:`.cache`): duplicate submissions complete
  without touching the simulator (``serve.cache.hit``);
- **megabatch stacking**: compatible queued kernel jobs — same SASS,
  geometry, tool config and knobs, different inputs — execute as one
  ``Session.run_batch`` pass with per-member reports
  (``serve.batches``).

The ``serve.*`` counters are written directly on the service registry
(not the swapped active one), so a ``/metrics`` scrape mid-job sees
them live; the registry is exposed through a *mounted*
:class:`~repro.telemetry.server.MetricsServer` whose routes the HTTP
layer (:mod:`.http`) serves on the job API's own port.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..api import Session
from ..fpx import AnalyzerConfig, DetectorConfig, FPXAnalyzer, FPXDetector
from ..gpu.device import Device, LaunchConfig
from ..nvbit.runtime import LaunchSpec
from ..sass.program import KernelCode
from ..telemetry import (
    Telemetry,
    live_view,
    merge_snapshot,
    snapshot_registry,
    telemetry_session,
)
from ..telemetry.names import (
    CTR_SERVE_BATCHES,
    CTR_SERVE_CACHE_HIT,
    CTR_SERVE_CACHE_MISS,
    CTR_SERVE_JOBS_COMPLETED,
    CTR_SERVE_JOBS_FAILED,
    CTR_SERVE_JOBS_REJECTED,
    CTR_SERVE_JOBS_SUBMITTED,
    GAUGE_SERVE_INFLIGHT,
    GAUGE_SERVE_QUEUE_DEPTH,
    SPAN_SERVE_JOB,
)
from ..telemetry.server import MetricsServer
from .cache import ResultCache
from .jobs import FMT_WORD, Job, JobRequest, parse_request

__all__ = ["JobService", "QueueFull", "ServeConfig", "ServiceClosed"]

log = logging.getLogger("repro.serve")


class QueueFull(RuntimeError):
    """The bounded job queue is full (rendered as HTTP 429)."""


class ServiceClosed(RuntimeError):
    """The service stopped accepting submissions (HTTP 503)."""


@dataclass(frozen=True)
class ServeConfig:
    """Service sizing knobs (the CLI's ``--cache-size``/``--queue-depth``)."""

    #: Result-cache entries; 0 disables the cache.
    cache_size: int = 64
    #: Bounded queue depth; submissions beyond it get HTTP 429.
    queue_depth: int = 32
    #: Most kernel jobs stacked into one run_batch pass.
    batch_limit: int = 8


class JobService:
    """The queue + executor + cache behind the ``/v1/jobs`` API."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        #: The long-lived service registry: ``serve.*`` counters plus
        #: every job's merged telemetry snapshot.
        self.telemetry = Telemetry()
        self.cache = ResultCache(self.config.cache_size)
        #: The mounted exposition server (no port of its own — the
        #: HTTP layer answers its routes through ``respond()``).
        self.metrics = MetricsServer(
            source=lambda: live_view(self.telemetry))
        self._jobs: dict[str, Job] = {}
        self._queue: deque[Job] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: Submissions are accepted from construction — they queue
        #: until :meth:`start` brings the executor up — and refused
        #: once :meth:`shutdown` begins.
        self._accepting = True
        self._stopping = False
        self._seq = 0
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "JobService":
        if self._thread is not None:
            return self
        self._accepting = True
        self._stopping = False
        self.metrics.mount()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-serve-executor")
        self._thread.start()
        return self

    def shutdown(self, *, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting and wind the executor down.

        ``drain=True`` (the default) finishes every queued and
        in-flight job first; ``drain=False`` fails queued jobs
        immediately (in-flight execution still completes — the
        simulator has no preemption point).
        """
        with self._wake:
            self._accepting = False
            self._stopping = True
            if not drain:
                while self._queue:
                    job = self._queue.popleft()
                    job.status = "failed"
                    job.error = "service shut down before execution"
                    job.done.set()
                self.telemetry.gauge(GAUGE_SERVE_QUEUE_DEPTH, 0)
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.metrics.stop()

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- submission / lookup ----------------------------------------------

    def submit(self, body) -> Job:
        """Validate and enqueue one submission.

        Raises :class:`~repro.serve.jobs.BadRequest` (HTTP 400),
        :class:`QueueFull` (429) or :class:`ServiceClosed` (503).
        """
        request = parse_request(body)
        with self._wake:
            if not self._accepting:
                raise ServiceClosed("the service is shutting down")
            if len(self._queue) >= self.config.queue_depth:
                self.telemetry.count(CTR_SERVE_JOBS_REJECTED)
                raise QueueFull(
                    f"job queue is full ({self.config.queue_depth} "
                    f"queued); retry later")
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", request)
            self._jobs[job.id] = job
            self._queue.append(job)
            self.telemetry.count(CTR_SERVE_JOBS_SUBMITTED)
            self.telemetry.gauge(GAUGE_SERVE_QUEUE_DEPTH,
                                 len(self._queue))
            self._wake.notify()
        return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- the executor loop -------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stopping:
                    self._wake.wait()
                if not self._queue:
                    return  # stopping and drained
                batch = self._take_batch_locked()
                for job in batch:
                    job.status = "running"
                self.telemetry.gauge(GAUGE_SERVE_QUEUE_DEPTH,
                                     len(self._queue))
                self.telemetry.gauge(GAUGE_SERVE_INFLIGHT, len(batch))
            try:
                self._execute(batch)
            finally:
                self.telemetry.gauge(GAUGE_SERVE_INFLIGHT, 0)

    def _take_batch_locked(self) -> list[Job]:
        """Pop the head job plus every compatible queued kernel job.

        Jobs whose result is already cached, or that duplicate a cache
        key already in the batch, stay queued: they complete as cache
        hits on a later iteration instead of being recomputed.
        """
        lead = self._queue.popleft()
        bkey = lead.request.batch_key()
        if bkey is None or not self._queue \
                or self.cache.peek(lead.request.cache_key()):
            return [lead]
        batch, kept = [lead], deque()
        keys = {lead.request.cache_key()}
        for other in self._queue:
            ckey = other.request.cache_key()
            if (len(batch) < self.config.batch_limit
                    and other.request.batch_key() == bkey
                    and ckey not in keys
                    and not self.cache.peek(ckey)):
                batch.append(other)
                keys.add(ckey)
            else:
                kept.append(other)
        self._queue.clear()
        self._queue.extend(kept)
        return batch

    def _execute(self, batch: list[Job]) -> None:
        misses = []
        for job in batch:
            hit = self.cache.get(job.request.cache_key())
            if hit is not None:
                self.telemetry.count(CTR_SERVE_CACHE_HIT)
                self._finish(job, hit[0], hit[1], cached=True)
            else:
                self.telemetry.count(CTR_SERVE_CACHE_MISS)
                misses.append(job)
        if len(misses) > 1:
            try:
                self._run_kernel_batch(misses)
                return
            except Exception:
                # One bad member (say, a kernel that never exits) sinks
                # the whole stacked pass; rerun its jobs one at a time
                # so only the offending job fails.
                log.warning("stacked batch of %d jobs failed; rerunning "
                            "them one at a time", len(misses),
                            exc_info=True)
        for job in misses:
            if job.done.is_set():
                continue
            try:
                self._run_single(job)
            except Exception as exc:
                log.exception("job %s failed", job.id)
                self._fail(job, exc)

    def _finish(self, job: Job, payload: dict, events,
                snapshot: dict | None = None, *,
                cached: bool = False) -> None:
        if not cached:
            self.cache.put(job.request.cache_key(), payload, events)
        if snapshot is not None:
            merge_snapshot(self.telemetry, snapshot)
            job.telemetry = snapshot
        with self._lock:
            job.report = payload
            job.events = list(events) if events is not None else []
            job.cached = cached
            job.status = "done"
        self.telemetry.count(CTR_SERVE_JOBS_COMPLETED)
        job.done.set()

    def _fail(self, job: Job, exc: Exception) -> None:
        with self._lock:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        self.telemetry.count(CTR_SERVE_JOBS_FAILED)
        job.done.set()

    # -- execution legs ----------------------------------------------------

    def _run_single(self, job: Job) -> None:
        req = job.request
        with telemetry_session() as tel:
            with tel.span(SPAN_SERVE_JOB, job=job.id, kind=req.kind,
                          tool=req.tool):
                if req.kind == "workload":
                    payload, events = _run_workload(req)
                else:
                    payload, events = _run_kernel(req)
            snapshot = snapshot_registry(tel)
        self._finish(job, payload, events, snapshot)

    def _run_kernel_batch(self, jobs: list[Job]) -> None:
        """Stack compatible kernel jobs through one run_batch pass."""
        lead = jobs[0].request
        with telemetry_session() as tel:
            with tel.span(SPAN_SERVE_JOB, job=jobs[0].id, kind="kernel",
                          tool=lead.tool, members=len(jobs)):
                code = KernelCode.assemble(lead.kernel_name, lead.sass)
                device = Device()
                staged = [_stage(device, job.request) for job in jobs]
                session = Session(_tool_for(lead), device=device,
                                  **_knobs(lead))
                specs = [LaunchSpec(
                    code,
                    LaunchConfig(job.request.grid_dim,
                                 job.request.block_dim),
                    tuple(params))
                    for job, (params, _) in zip(jobs, staged)]
                result = session.run_batch(specs)
                members = []
                for m, (job, (_, reads)) in enumerate(zip(jobs, staged)):
                    report = session.report(member=m).to_json()
                    outputs = [
                        [int(v) for v in result.read_back(m, addr, dtype,
                                                          count)]
                        for addr, dtype, count in reads]
                    members.append((job, _kernel_payload(
                        job.request, report, outputs),
                        report["records"]))
            snapshot = snapshot_registry(tel)
        self.telemetry.count(CTR_SERVE_BATCHES)
        for job, payload, events in members:
            self._finish(job, payload, events, snapshot)


# -- execution helpers --------------------------------------------------------


def _knobs(req: JobRequest) -> dict:
    knobs = {name: req.option(name) for name
             in ("decode_cache", "warp_batch", "megabatch")}
    # Default False (not None): the per-job knob is the only way to turn
    # the shadow plane on in a service — a process-wide default must
    # never leak across concurrent clients' jobs.
    knobs["shadow"] = req.option("shadow", False)
    return knobs


def _tool_for(req: JobRequest):
    if req.tool == "analyzer":
        return FPXAnalyzer(AnalyzerConfig())
    config = dict(req.config)
    if "kernel_whitelist" in config \
            and config["kernel_whitelist"] is not None:
        config["kernel_whitelist"] = frozenset(config["kernel_whitelist"])
    return FPXDetector(DetectorConfig(**config))


def _stage(device: Device, req: JobRequest):
    """Stage one job's inputs and zeroed outputs; returns the launch
    params and the ``(addr, dtype, count)`` read-back plan."""
    params: list[int] = []
    for fmt, bits in req.inputs:
        dtype = np.uint32 if fmt == "f32" else np.uint64
        params.append(device.alloc_array(np.asarray(bits, dtype=dtype)))
    reads = []
    for fmt, count in req.outputs:
        addr = device.alloc_zeros(FMT_WORD[fmt] * count)
        params.append(addr)
        reads.append((addr, np.uint32 if fmt == "f32" else np.uint64,
                      count))
    return params, reads


def _kernel_payload(req: JobRequest, report: dict,
                    outputs: list[list[int]]) -> dict:
    """The kernel-job report payload.

    Deliberately carries no stats and no engine/batching provenance:
    all execution paths are bit-exact, so a cached payload must be
    indistinguishable whether it came from a solo launch or a
    megabatch member.
    """
    return {"kernel": req.kernel_name, "tool": req.tool,
            "grid_dim": req.grid_dim, "block_dim": req.block_dim,
            "report": report, "outputs": outputs}


def _run_workload(req: JobRequest):
    """One registry-program job via the canonical JSON producer.

    The returned payload is exactly what ``repro run NAME --json``
    prints (the analyzer's ``events`` key is popped into the job's
    events store, which is also where detector/binfpe record lists
    land, so the report document itself stays byte-identical).
    """
    from ..harness.runner import run_workload_json
    config = dict(req.config)
    if "kernel_whitelist" in config \
            and config["kernel_whitelist"] is not None:
        config["kernel_whitelist"] = frozenset(config["kernel_whitelist"])
    payload = run_workload_json(
        req.workload, req.tool, fast_math=req.fast_math,
        detector_config=DetectorConfig(**config) if config else None,
        decode_cache=req.option("decode_cache"),
        warp_batch=req.option("warp_batch"),
        shadow=req.option("shadow", False))
    events = payload.pop("events", None)
    if events is None:
        events = payload.get("report", {}).get("records", [])
    return payload, events


def _run_kernel(req: JobRequest):
    """One ad-hoc SASS job on a fresh device."""
    code = KernelCode.assemble(req.kernel_name, req.sass)
    device = Device()
    params, reads = _stage(device, req)
    tool = _tool_for(req)
    session = Session(tool, device=device, **_knobs(req))
    session.run_schedule([LaunchSpec(
        code, LaunchConfig(req.grid_dim, req.block_dim), tuple(params))])
    outputs = [[int(v) for v in device.read_back(addr, dtype, count)]
               for addr, dtype, count in reads]
    if req.tool == "analyzer":
        report = tool.to_json()
        events = tool.events_json()
    else:
        report = session.report().to_json()
        events = report["records"]
    return _kernel_payload(req, report, outputs), events
