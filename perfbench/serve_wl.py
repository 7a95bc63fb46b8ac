"""``serve``: the job service under an open-loop, Poisson burst stream.

An in-process :class:`repro.serve.JobService` behind a real
:class:`repro.serve.ServeServer` takes bursts of raw-SASS kernel jobs
(built from ``repro.conformance.generator`` cases), resubmissions at two
reuse distances and a few cheap registry-workload jobs, POSTed over
HTTP on a fixed schedule.  One op is one job, timed from its due time to
its fetched report.  Two client threads: one submits on schedule, one
waits on each job's in-process handle and GETs its report, so no polling
loop loads the server.

Every run offers the same fixed multiset of jobs over the same span: the
seed permutes the events, draws the Poisson gaps (rescaled to the fixed
span) and draws operand words from the generator's exception-adjacent
distributions.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import threading
import time
from dataclasses import dataclass, field

from .common import Op, p99

#: Offered rate in events (bursts) per second; at the seed commit it
#: keeps the dispatcher about half busy (see README.md).
EVENTS_PER_S = 11.0
#: Fixed cases whose *programs* the kernel jobs run.
TEMPLATE_SEED = 2023
#: Seed of the fixed arrival trace (see :func:`events_for`).
SCHEDULE_SEED = 2023
TEMPLATES = 6
#: (grid_dim, block_dim) of template ``i`` is ``GEOMETRIES[i % 3]``.
GEOMETRIES = ((1, 32), (2, 32), (4, 32))
#: Detector burst sizes per block (each burst shares one template, so
#: it is megabatch-stackable); analyzer bursts run solo per job.
DETECTOR_BURSTS = (1, 2, 3, 4, 5, 6, 7, 8) * 2
ANALYZER_BURSTS = (1, 1, 2)
#: Cheap registry workloads (15-30 ms each), one job per event.
WORKLOAD_JOBS = ("GRAMSCHM", "LU", "cfd", "Laghos", "rayTracing",
                 "simpleStreams")
WORKLOADS_PER_BLOCK = 2
#: Resubmission reuse distances, in jobs, against the 64-entry cache.
NEAR, FAR = 6, 160
NEAR_PER_BLOCK, FAR_PER_BLOCK = 2, 1
BLOCK_EVENTS = (len(DETECTOR_BURSTS) + len(ANALYZER_BURSTS)
                + WORKLOADS_PER_BLOCK + NEAR_PER_BLOCK + FAR_PER_BLOCK)
#: Queue depth large enough that a Poisson cluster is not refused; a
#: refusal (HTTP 429) still counts as a failed op.
QUEUE_DEPTH = 256
#: Generator lateness past which a run is invalid.
LATE_P99_BOUND_S = 0.25
JOB_TIMEOUT_S = 120.0


@dataclass
class Event:
    """One arrival: a burst of jobs due at the same instant."""

    kind: str                       # detector|analyzer|workload|near|far
    size: int = 1
    template: int = 0
    workload: str = ""
    due: float = 0.0
    #: Global job indices of this event's jobs.
    jobs: list = field(default_factory=list)


def blocks_for(seconds: int) -> int:
    return max(1, round(seconds * EVENTS_PER_S / BLOCK_EVENTS))


def _block(rng: random.Random, index: int) -> list[Event]:
    """One block of the fixed arrival trace, with each event's gap
    before it in ``due`` (gaps rescaled to the block's nominal span)."""
    events = [Event("detector", size, template=n % TEMPLATES)
              for n, size in enumerate(DETECTOR_BURSTS)]
    events += [Event("analyzer", size, template=n % TEMPLATES)
               for n, size in enumerate(ANALYZER_BURSTS)]
    events += [Event("workload", workload=WORKLOAD_JOBS[
        (index * WORKLOADS_PER_BLOCK + n) % len(WORKLOAD_JOBS)])
        for n in range(WORKLOADS_PER_BLOCK)]
    events += [Event("far") for _ in range(FAR_PER_BLOCK)]
    rng.shuffle(events)
    for _ in range(NEAR_PER_BLOCK):
        # after at least NEAR fresh jobs of this block, so the original
        # is always in the block and submitted first
        jobs, first = 0, len(events)
        for i, ev in enumerate(events):
            if jobs >= NEAR:
                first = i
                break
            if ev.kind != "far":
                jobs += ev.size
        events.insert(rng.randint(first, len(events)), Event("near"))
    gaps = [rng.expovariate(EVENTS_PER_S) for _ in events]
    scale = len(events) / EVENTS_PER_S / sum(gaps)
    for ev, gap in zip(events, gaps):
        ev.due = gap * scale
    return events


def events_for(seed: int, seconds: int) -> list[Event]:
    """The run's arrival schedule (due times in seconds from start).

    The arrival trace is a fixed Poisson realisation cut into blocks
    (drawn from ``SCHEDULE_SEED``); the run's seed permutes the blocks.
    A per-seed draw of every gap made the tail percentile a property of
    the draw (which bursts happened to cluster) rather than of the
    system.
    """
    rng = random.Random(SCHEDULE_SEED)
    blocks = [_block(rng, b) for b in range(blocks_for(seconds))]
    random.Random(seed).shuffle(blocks)
    events: list[Event] = []
    due, n = 0.0, 0
    for ev in (ev for block in blocks for ev in block):
        due += ev.due
        ev.due = due
        ev.jobs = list(range(n, n + ev.size))
        n += ev.size
        events.append(ev)
    return events


def _words() -> dict[str, list[int]]:
    """A fixed pool of operand words by format, from the conformance
    generator's exception-adjacent distributions.  Runs draw from the
    same pool, so the share of special values (and with it report
    sizes) does not move with the seed."""
    from repro.conformance.generator import generate_case
    words: dict[str, list[int]] = {"f32": [], "f64": []}
    index = 0
    while min(len(w) for w in words.values()) < 4096:
        for vec in generate_case(TEMPLATE_SEED + 1, index).inputs:
            words[vec.fmt].extend(vec.bits)
        index += 1
    return words


def _templates():
    from repro.conformance.generator import generate_case
    return [generate_case(TEMPLATE_SEED, i) for i in range(TEMPLATES)]


def _kernel_body(case, geometry, tool: str, rng, words) -> dict:
    grid, block = geometry
    threads = grid * block
    return {
        "kernel": {"name": f"{case.name}-{grid}x{block}",
                   "sass": case.sass(), "grid_dim": grid,
                   "block_dim": block},
        "inputs": [{"fmt": vec.fmt,
                    "bits": [rng.choice(words[vec.fmt])
                             for _ in range(threads)]}
                   for vec in case.inputs],
        "outputs": [{"fmt": "f64" if op.fmt == "f64" else "f32",
                     "count": threads} for op in case.ops],
        "tool": tool,
    }


def job_bodies(seed: int, events: list[Event]) -> list[dict]:
    """One submission body per job, in job order.  A resubmission
    repeats the nearest fresh job at least ``NEAR`` (``FAR``) jobs
    before it; a far one early in the run counts back cyclically."""
    rng = random.Random(seed ^ 0x5EED)
    words = _words()
    templates = _templates()
    kinds = [ev.kind for ev in events for _ in ev.jobs]
    bodies: list = [None] * len(kinds)
    for ev in events:
        for j in ev.jobs:
            if ev.kind in ("detector", "analyzer"):
                bodies[j] = _kernel_body(
                    templates[ev.template],
                    GEOMETRIES[ev.template % len(GEOMETRIES)],
                    ev.kind, rng, words)
            elif ev.kind == "workload":
                bodies[j] = {"workload": ev.workload, "tool": "detector"}
    for j, kind in enumerate(kinds):
        if kind in ("near", "far"):
            back = NEAR if kind == "near" else FAR
            while kinds[(j - back) % len(kinds)] in ("near", "far"):
                back += 1
            bodies[j] = bodies[(j - back) % len(kinds)]
    return bodies


def reference(body: dict) -> dict:
    """The solo serial report of one submission, built through the
    public APIs: ``Session(megabatch=False)`` for kernel jobs and
    ``run_workload_json`` for workload jobs."""
    if "workload" in body:
        from repro.harness.runner import run_workload_json
        payload = run_workload_json(body["workload"], body["tool"])
        payload.pop("events", None)
        return payload
    import numpy as np
    from repro.api import Session
    from repro.fpx import (AnalyzerConfig, DetectorConfig, FPXAnalyzer,
                           FPXDetector)
    from repro.gpu.device import Device, LaunchConfig
    from repro.nvbit.runtime import LaunchSpec
    from repro.sass.program import KernelCode
    kernel = body["kernel"]
    dtypes = {"f32": (np.uint32, 4), "f64": (np.uint64, 8)}
    code = KernelCode.assemble(kernel["name"], kernel["sass"])
    device = Device()
    params = [device.alloc_array(np.asarray(i["bits"],
                                            dtype=dtypes[i["fmt"]][0]))
              for i in body["inputs"]]
    reads = []
    for out in body["outputs"]:
        dtype, word = dtypes[out["fmt"]]
        addr = device.alloc_zeros(word * out["count"])
        params.append(addr)
        reads.append((addr, dtype, out["count"]))
    analyzer = body["tool"] == "analyzer"
    tool = FPXAnalyzer(AnalyzerConfig()) if analyzer \
        else FPXDetector(DetectorConfig())
    session = Session(tool, device=device, megabatch=False)
    session.run_schedule([LaunchSpec(
        code, LaunchConfig(kernel["grid_dim"], kernel["block_dim"]),
        tuple(params))])
    outputs = [[int(v) for v in device.read_back(addr, dtype, count)]
               for addr, dtype, count in reads]
    report = tool.to_json() if analyzer else session.report().to_json()
    return {"kernel": kernel["name"], "tool": body["tool"],
            "grid_dim": kernel["grid_dim"], "block_dim": kernel["block_dim"],
            "report": report, "outputs": outputs}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, seconds: int, tracer=None) -> None:
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.events = events_for(seed, seconds)
        #: Raw report documents by job index (bytes keep the client's
        #: own footprint small next to the service's).
        self.docs: dict[int, bytes] = {}
        self.cached: set[int] = set()
        self.late: list[float] = []
        self.post_s: list[float] = []
        self.get_s: list[float] = []
        self.batches: list[tuple[float, float, list]] = []
        self.service = self.server = None

    def prepare(self) -> None:
        bodies = job_bodies(self.seed, self.events)
        self.payloads = [json.dumps(b).encode() for b in bodies]
        self.kernel = ["kernel" in b for b in bodies]

    def setup(self) -> None:
        from repro.serve import JobService, ServeConfig, ServeServer
        self.service = JobService(ServeConfig(queue_depth=QUEUE_DEPTH))
        if self.tracer is not None:
            self._trace_dispatcher()
        self.service.start()
        self.server = ServeServer(self.service, port=0).start()

    def _trace_dispatcher(self) -> None:
        """Span each dispatcher batch and stamp when it started, for
        queue wait and busy time; later spans on the dispatcher thread
        are attributed to the batch's lead job."""
        service, tracer = self.service, self.tracer
        execute = service._execute

        def traced(batch):
            tracer.set_op(batch[0].id)
            start = time.monotonic()
            with tracer.span("serve.execute", members=len(batch)):
                execute(batch)
            self.batches.append((start, time.monotonic(),
                                 [job.submitted_mono for job in batch]))
        service._execute = traced

    def run(self) -> list[Op]:
        ops = [Op(f"{ev.kind}/{j}") for ev in self.events for j in ev.jobs]
        due = [0.0] * len(ops)
        handed: queue.Queue = queue.Queue()
        host, port = "127.0.0.1", self.server.port
        errors: list[BaseException] = []
        t0 = time.perf_counter() + 0.05

        def submit() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                for ev in self.events:
                    at = t0 + ev.due
                    delay = at - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    for j in ev.jobs:
                        due[j] = at
                        start = time.perf_counter()
                        self.late.append(start - at)
                        status, data = _request(conn, "POST", "/v1/jobs",
                                                self.payloads[j])
                        self.post_s.append(time.perf_counter() - start)
                        if status != 202:
                            ops[j].fail(f"POST answered {status}")
                            ops[j].latency = time.perf_counter() - at
                        else:
                            handed.put((j, json.loads(data)["job"]))
            except BaseException as exc:
                errors.append(exc)
            finally:
                handed.put(None)

        def fetch() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                while (item := handed.get()) is not None:
                    j, job_id = item
                    if not self.service.job(job_id).wait(JOB_TIMEOUT_S):
                        ops[j].fail("job did not finish")
                        continue
                    start = time.perf_counter()
                    status, data = _request(conn, "GET",
                                            f"/v1/jobs/{job_id}")
                    now = time.perf_counter()
                    self.get_s.append(now - start)
                    ops[j].latency = now - due[j]
                    doc = json.loads(data) if data else {}
                    if status != 200 or doc.get("status") != "done":
                        ops[j].fail(f"GET answered {status} "
                                    f"{doc.get('status')}: "
                                    f"{doc.get('error', '')}")
                    if doc.get("cached"):
                        self.cached.add(j)
                    self.docs[j] = data
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=submit, name="bench-submit"),
                   threading.Thread(target=fetch, name="bench-fetch")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return ops

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.service is not None:
            self.service.shutdown()

    def check(self, ops: list[Op]) -> list[str]:
        """Every report equals its solo serial reference; resubmissions
        inside the cache distance come back cached; the generator kept
        to its schedule."""
        problems = []
        refs: dict[bytes, str] = {}
        for j, op in enumerate(ops):
            data = self.docs.get(j)
            if data is None or not op.ok:
                continue
            body = self.payloads[j]
            if body not in refs:
                refs[body] = canonical(reference(json.loads(body)))
            if canonical(json.loads(data).get("report")) != refs[body]:
                op.fail("report differs from the solo serial reference")
            if op.key.startswith("near/") and j not in self.cached:
                op.fail("resubmission inside the cache distance was "
                        "not cached")
        late = p99(self.late)
        if late > LATE_P99_BOUND_S:
            problems.append(f"generator ran late: p99 {late * 1000:.1f} ms")
        return problems

    def layers(self, ops: list[Op], wall: float) -> dict[str, float]:
        from .tracing import layer_times
        out = layer_times(self.tracer, len(ops))
        batch_runs = [s for s in self.tracer.spans
                      if s.name == "nvbit.run_batch"]
        stacked = sum((s.attrs or {}).get("members", 0) for s in batch_runs)
        kernel_jobs = sum(1 for j, kernel in enumerate(self.kernel)
                          if kernel and j in self.docs
                          and j not in self.cached)
        waits = [start - sub for start, _, subs in self.batches
                 for sub in subs]
        out.update({
            "serve.post_ms": 1000.0 * sum(self.post_s) / len(self.post_s),
            "serve.get_ms": 1000.0 * sum(self.get_s) / len(self.get_s),
            "serve.queue_wait_ms": 1000.0 * sum(waits) / len(waits),
            "serve.busy_ratio": sum(end - start for start, end, _
                                    in self.batches) / wall,
            "serve.cache_hit_ratio": len(self.cached) / len(ops),
            "serve.stacked_ratio": stacked / max(1, kernel_jobs),
            "serve.batch_members": stacked / max(1, len(batch_runs)),
            "serve.late_p99_ms": 1000.0 * p99(self.late),
            "serve.late_max_ms": 1000.0 * max(self.late),
        })
        return out

    def counts(self) -> dict[str, int]:
        """Modeled counts from the workload jobs' returned stats (kernel
        job reports carry none)."""
        out = {"nvbit.launches": 0, "gpu.warp_instrs": 0,
               "fpx.channel_messages": 0}
        for j, data in self.docs.items():
            if self.kernel[j]:
                continue
            stats = json.loads(data)["report"]["stats"]
            if stats:
                out["nvbit.launches"] += stats["launches"]
                out["gpu.warp_instrs"] += stats["warp_instrs"]
                out["fpx.channel_messages"] += stats["channel_messages"]
        return out
