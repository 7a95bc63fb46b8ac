"""CI smoke for the repro.serve job service.

Brings the whole stack up on an ephemeral port and proves the
acceptance behaviour end-to-end over real HTTP:

1. a workload job submits, polls to ``done``, and its report carries
   ``schema_version`` 1 with the expected exception totals;
2. a duplicate submission completes from the result cache —
   counter-verified on a live ``/metrics`` scrape (validated with the
   in-repo ``parse_prometheus`` conformance parser, not string grep);
3. two compatible kernel jobs with different inputs stack into one
   megabatch pass (``serve.batches``) and report per-member results;
4. ``/v1/jobs/<id>/events`` serves the exception records;
5. malformed and oversized submissions get 400 with error bodies, and
   an id that was never issued gets 404;
6. after ``RETAINED_JOBS + 1`` more finished jobs (duplicates, served
   from the cache) the first jobs are evicted: their ids answer 410,
   and ``GET /v1/jobs`` lists at most ``RETAINED_JOBS`` finished jobs;
7. overflowing submissions get 429 with error bodies;
8. shutdown drains in-flight work before returning.

Exits non-zero (AssertionError) on any violation.

Usage: PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import RETAINED_JOBS, JobService, ServeConfig, ServeServer
from repro.telemetry import parse_prometheus
from repro.telemetry.names import (
    CTR_SERVE_BATCHES,
    CTR_SERVE_CACHE_HIT,
    CTR_SERVE_JOBS_COMPLETED,
)
from repro.telemetry.prom import metric_name

POLL_TIMEOUT = 120.0
INF32 = 0x7F800000
NAN32 = 0x7FC00000

KERNEL_SASS = """
    S2R R0, SR_TID.X ;
    S2R R1, SR_CTAID.X ;
    S2R R2, SR_NTID.X ;
    IMAD R3, R1, R2, R0 ;
    IMAD R4, R3, 0x4, RZ ;
    MOV R6, c[0x0][0x160] ;
    IADD3 R6, R6, R4, RZ ;
    LDG R8, [R6] ;
    FADD R9, R8, 1.0 ;
    MOV R6, c[0x0][0x164] ;
    IADD3 R6, R6, R4, RZ ;
    STG R9, [R6] ;
    EXIT ;
"""


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30.0) as resp:
        assert resp.status == 200, f"{url}: HTTP {resp.status}"
        return json.loads(resp.read())


def _post(url: str, obj: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        url, data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30.0) as resp:
        return resp.status, json.loads(resp.read())


def _error(url: str, obj: dict | None = None) -> tuple[int, str]:
    """The status and error message of a request that must fail: a
    GET of ``url``, or a POST of ``obj`` to it."""
    try:
        if obj is None:
            _get(url)
        else:
            _post(url, obj)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())["error"]
    raise AssertionError(f"{url} answered 2xx")


def _poll(base: str, href: str) -> dict:
    deadline = time.monotonic() + POLL_TIMEOUT
    while True:
        doc = _get(base + href)
        if doc["status"] in ("done", "failed"):
            assert doc["status"] == "done", doc
            return doc
        assert time.monotonic() < deadline, f"job never finished: {doc}"
        time.sleep(0.1)


def _samples(base: str) -> dict:
    with urllib.request.urlopen(base + "/metrics", timeout=30.0) as resp:
        body = resp.read().decode("utf-8")
    parsed = parse_prometheus(body)
    return {name: value for name, _labels, value in parsed["samples"]}


def kernel_job(bits: list[int]) -> dict:
    return {"kernel": {"name": "smoke", "sass": KERNEL_SASS,
                       "grid_dim": 1, "block_dim": 32},
            "inputs": [{"fmt": "f32", "bits": bits}],
            "outputs": [{"fmt": "f32", "count": 32}],
            "tool": "detector"}


def main() -> int:
    hit_metric = metric_name(CTR_SERVE_CACHE_HIT) + "_total"
    batch_metric = metric_name(CTR_SERVE_BATCHES) + "_total"
    done_metric = metric_name(CTR_SERVE_JOBS_COMPLETED) + "_total"

    service = JobService(ServeConfig(cache_size=32, queue_depth=4))
    # Stage a deterministic batch before the executor starts: two
    # compatible kernel jobs (different inputs) must stack into one
    # run_batch pass; the duplicate must complete from the cache.
    inf_job = service.submit(kernel_job([INF32] * 32))
    nan_job = service.submit(kernel_job([NAN32] * 32))
    dup_job = service.submit(kernel_job([INF32] * 32))
    service.start()
    server = ServeServer(service, port=0).start()
    base = server.url
    try:
        # 1. workload job over HTTP, end to end.
        status, resp = _post(base + "/v1/jobs", {"workload": "myocyte"})
        assert status == 202 and resp["status"] == "queued", resp
        doc = _poll(base, resp["href"])
        report = doc["report"]["report"]
        assert report["schema_version"] == 1, report
        assert report["total"] > 0, report
        print(f"workload job ok: {report['total']} records, "
              f"schema_version {report['schema_version']}")

        # 2+3. the staged kernel jobs: one batch, one cache hit.
        for job in (inf_job, nan_job, dup_job):
            assert job.wait(POLL_TIMEOUT), "kernel job never finished"
        inf_doc = _poll(base, f"/v1/jobs/{inf_job.id}")
        nan_doc = _poll(base, f"/v1/jobs/{nan_job.id}")
        dup_doc = _poll(base, f"/v1/jobs/{dup_job.id}")
        assert inf_doc["report"]["report"]["counts"]["FP32.INF"] == 1
        assert nan_doc["report"]["report"]["counts"]["FP32.NAN"] == 1
        assert dup_doc["cached"], dup_doc
        assert dup_doc["report"] == inf_doc["report"]
        live = _samples(base)
        assert live.get(batch_metric) == 1, live
        assert live.get(hit_metric) == 1, live
        assert live.get(done_metric) == 4, live
        print(f"kernel jobs ok: {batch_metric}={live[batch_metric]:.0f}, "
              f"{hit_metric}={live[hit_metric]:.0f}")

        # 4. the events route.
        events = _get(base + f"/v1/jobs/{nan_job.id}/events")["events"]
        assert events and events[0]["classification"]["kind"] == "NAN"
        print(f"events ok: {len(events)} records")

        # 5. malformed or oversized -> 400; never issued -> 404.
        code, error = _error(base + "/v1/jobs",
                             {"workload": "no-such-program"})
        assert code == 400 and "unknown workload" in error, (code, error)
        oversized = kernel_job([INF32] * 32)
        oversized["kernel"].update(grid_dim=1024, block_dim=1024)
        code, error = _error(base + "/v1/jobs", oversized)
        assert code == 400 and "at most 4096 threads" in error, \
            (code, error)
        code, _ = _error(base + "/v1/jobs/job-999999")
        assert code == 404, code
        print("validation ok: 400 unknown workload, 400 oversized "
              "geometry, 404 never-issued id")

        # 6. retention: RETAINED_JOBS + 1 cache-hit duplicates push the
        # first finished jobs out; their ids answer 410.
        for _ in range(RETAINED_JOBS + 1):
            status, dup = _post(base + "/v1/jobs", kernel_job([INF32] * 32))
            assert status == 202, dup
            assert service.job(dup["job"]).wait(POLL_TIMEOUT)
        for job_id in (inf_job.id, resp["job"]):
            code, error = _error(base + f"/v1/jobs/{job_id}")
            assert code == 410 and str(RETAINED_JOBS) in error, \
                (code, error)
        finished = [j for j in _get(base + "/v1/jobs")["jobs"]
                    if j["status"] in ("done", "failed")]
        assert len(finished) <= RETAINED_JOBS, len(finished)
        print(f"retention ok: 410 for evicted ids, {len(finished)} "
              f"finished jobs listed (bound {RETAINED_JOBS})")

        # 7. overflow -> 429 (queue_depth=4, executor is idle so fill
        # it with slow workload jobs first).
        rejected = 0
        for _ in range(12):
            try:
                _post(base + "/v1/jobs", {"workload": "myocyte",
                                          "tool": "binfpe"})
            except urllib.error.HTTPError as exc:
                assert exc.code == 429, exc.code
                rejected += 1
        assert rejected > 0, "queue never overflowed"
        print(f"backpressure ok: {rejected} submissions got 429")
    finally:
        server.stop()
        service.shutdown(drain=True)

    # 8. the drain finished everything that was accepted.
    assert all(job.done.is_set() for job in service.jobs())
    statuses = {job.status for job in service.jobs()}
    assert statuses <= {"done"}, statuses
    print(f"serve smoke ok: {len(service.jobs())} jobs drained clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
