"""The repro.serve job service: lifecycle, cache, backpressure,
batching, shutdown, telemetry merge, size limits, bounded retention,
and CLI-JSON byte-identity.

Determinism lever used throughout: a :class:`JobService` accepts
submissions from construction and only starts executing at
``start()``, so tests can stage an exact queue shape (batch mates,
duplicates, overflow) before any execution happens.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.serve import (
    MAX_OUTPUT_WORDS,
    MAX_THREADS,
    RETAINED_JOBS,
    BadRequest,
    JobService,
    QueueFull,
    ServeConfig,
    ServeServer,
    ServiceClosed,
    parse_request,
)
from repro.serve.service import _run_kernel
from repro.telemetry import snapshot_registry, telemetry_session
from repro.telemetry.names import (
    CTR_MEGABATCH_BATCHES,
    CTR_MEGABATCH_MEMBERS,
    CTR_SERVE_BATCHES,
    CTR_SERVE_CACHE_HIT,
    CTR_SERVE_CACHE_MISS,
    CTR_SERVE_JOBS_COMPLETED,
    CTR_SERVE_JOBS_REJECTED,
)

INF32 = 0x7F800000
NAN32 = 0x7FC00000
ONE32 = 0x3F800000

#: tid-indexed load, FADD, store — the standard param-addressed idiom.
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


def kernel_job(bits, name="k"):
    return {
        "kernel": {"name": name, "sass": KERNEL_SASS,
                   "grid_dim": 1, "block_dim": 32},
        "inputs": [{"fmt": "f32", "bits": list(bits)}],
        "outputs": [{"fmt": "f32", "count": 32}],
        "tool": "detector",
    }


def _get(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, obj, timeout=30.0):
    req = urllib.request.Request(
        url, data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _counter(service, name):
    counter = service.telemetry.counters.get(name)
    return counter.value if counter is not None else 0


class TestLifecycle:
    def test_submit_poll_report_events_over_http(self):
        with JobService() as service, \
                ServeServer(service, port=0) as server:
            status, resp = _post(server.url + "/v1/jobs",
                                 kernel_job([INF32] * 32))
            assert status == 202
            assert resp["href"] == f"/v1/jobs/{resp['job']}"
            assert service.job(resp["job"]).wait(60)

            status, doc = _get(server.url + resp["href"])
            assert status == 200
            assert doc["status"] == "done"
            report = doc["report"]["report"]
            assert report["schema_version"] == 1
            assert report["counts"]["FP32.INF"] == 1
            # every lane produced Inf + 1.0 = Inf
            assert doc["report"]["outputs"][0] == [INF32] * 32

            status, ev = _get(server.url + resp["href"] + "/events")
            assert status == 200
            assert ev["events"][0]["classification"]["kind"] == "INF"

            status, listing = _get(server.url + "/v1/jobs")
            assert {"job": resp["job"], "status": "done"} \
                in listing["jobs"]

    def test_metrics_and_healthz_mounted_on_job_port(self):
        with JobService() as service, \
                ServeServer(service, port=0) as server:
            service.submit(kernel_job([ONE32] * 32)).wait(60)
            status, health = _get(server.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                body = resp.read().decode()
            assert "repro_serve_jobs_submitted_total 1" in body
            assert "repro_serve_jobs_completed_total 1" in body

    def test_unknown_job_404(self):
        with JobService() as service, \
                ServeServer(service, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _get(server.url + "/v1/jobs/job-999999")
            assert exc_info.value.code == 404


class TestResultCache:
    def test_duplicate_submissions_hit_the_cache(self):
        body = kernel_job([NAN32] * 32)
        with JobService() as service:
            jobs = [service.submit(body) for _ in range(3)]
            for job in jobs:
                assert job.wait(60)
            assert _counter(service, CTR_SERVE_CACHE_MISS) == 1
            assert _counter(service, CTR_SERVE_CACHE_HIT) == 2
            assert [j.cached for j in jobs] == [False, True, True]
            # cached payloads are indistinguishable from computed ones
            assert jobs[1].report == jobs[0].report
            assert jobs[2].events == jobs[0].events

    def test_different_inputs_do_not_collide(self):
        with JobService() as service:
            a = service.submit(kernel_job([INF32] * 32))
            b = service.submit(kernel_job([ONE32] * 32))
            assert a.wait(60) and b.wait(60)
            assert not b.cached
            assert a.report != b.report


class TestBackpressure:
    def test_queue_overflow_raises_and_counts(self):
        service = JobService(ServeConfig(queue_depth=1))  # never started
        service.submit(kernel_job([ONE32] * 32))
        with pytest.raises(QueueFull):
            service.submit(kernel_job([INF32] * 32))
        assert _counter(service, CTR_SERVE_JOBS_REJECTED) == 1

    def test_http_429_with_error_body(self):
        service = JobService(ServeConfig(queue_depth=1))  # never started
        with ServeServer(service, port=0) as server:
            _post(server.url + "/v1/jobs", kernel_job([ONE32] * 32))
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(server.url + "/v1/jobs", kernel_job([INF32] * 32))
            assert exc_info.value.code == 429
            assert "full" in json.loads(exc_info.value.read())["error"]


class TestMalformed:
    @pytest.mark.parametrize("body,match", [
        (["not", "a", "dict"], "JSON object"),
        ({}, "exactly one of"),
        ({"workload": "myocyte", "kernel": {}}, "exactly one of"),
        ({"workload": "myocyte", "tool": "nope"}, "unknown tool"),
        ({"workload": "no-such-program"}, "unknown workload"),
        ({"workload": "myocyte", "inputs": []}, "kernel jobs only"),
        ({"kernel": {"name": "k"}}, "kernel.sass"),
        ({"kernel": {"name": "k", "sass": "EXIT ;", "block_dim": 0}},
         "block_dim"),
        ({"kernel": {"name": "k", "sass": "EXIT ;"}, "tool": "binfpe"},
         "kernel jobs run under"),
        ({"kernel": {"name": "k", "sass": "EXIT ;"},
          "inputs": [{"fmt": "f32", "bits": []}]}, "non-empty"),
        ({"workload": "myocyte", "options": {"turbo": True}},
         "unknown option"),
        ({"workload": "myocyte", "tool": "analyzer",
          "config": {"use_gt": False}}, "detector tool only"),
        ({"workload": "myocyte", "options": {"decode_cache": True}},
         "unknown option 'decode_cache'"),
    ])
    def test_bad_submission_rejected(self, body, match):
        with pytest.raises(BadRequest, match=match):
            parse_request(body)

    def test_http_400_non_json_body(self):
        service = JobService()  # never started: no execution needed
        with ServeServer(service, port=0) as server:
            req = urllib.request.Request(
                server.url + "/v1/jobs", data=b"{not json",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req)
            assert exc_info.value.code == 400
            assert "JSON" in json.loads(exc_info.value.read())["error"]

    def test_http_400_validation_error_body(self):
        service = JobService()
        with ServeServer(service, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(server.url + "/v1/jobs", {"workload": "nope"})
            assert exc_info.value.code == 400
            assert "unknown workload" \
                in json.loads(exc_info.value.read())["error"]


def sized_job(grid, block, count=32):
    job = kernel_job([ONE32] * 32)
    job["kernel"].update(grid_dim=grid, block_dim=block)
    job["outputs"] = [{"fmt": "f32", "count": count}]
    return job


class TestSizeLimits:
    @pytest.mark.parametrize("body,match", [
        (sized_job(1024, 1024), f"at most {MAX_THREADS} threads"),
        (sized_job(1 << 20, 32), f"at most {MAX_THREADS} threads"),
        (sized_job(MAX_THREADS // 32 + 1, 32),
         f"at most {MAX_THREADS} threads"),
        (sized_job(1, 32, MAX_OUTPUT_WORDS + 1),
         f"at most {MAX_OUTPUT_WORDS} words"),
    ])
    def test_oversized_kernel_job_rejected(self, body, match):
        with pytest.raises(BadRequest, match=match):
            parse_request(body)

    def test_limits_are_inclusive(self):
        req = parse_request(sized_job(MAX_THREADS // 1024, 1024,
                                      MAX_OUTPUT_WORDS))
        assert req.grid_dim * req.block_dim == MAX_THREADS
        assert req.outputs == (("f32", MAX_OUTPUT_WORDS),)

    @pytest.mark.parametrize("body", [
        sized_job(1024, 1024), sized_job(1, 32, MAX_OUTPUT_WORDS + 1)])
    def test_http_400_names_the_limit(self, body):
        service = JobService()  # never started: nothing may execute
        with ServeServer(service, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(server.url + "/v1/jobs", body)
            assert exc_info.value.code == 400
            assert "at most 4096" \
                in json.loads(exc_info.value.read())["error"]
        assert service.jobs() == []


class TestBatching:
    def test_compatible_queued_jobs_stack_through_run_batch(self):
        service = JobService()
        # staged before start(): the executor's first pop sees all three
        a = service.submit(kernel_job([INF32] * 32))
        b = service.submit(kernel_job([NAN32] * 32))
        dup = service.submit(kernel_job([INF32] * 32))  # a's duplicate
        service.start()
        try:
            for job in (a, b, dup):
                assert job.wait(60)
        finally:
            service.shutdown()
        # a and b stacked into one run_batch pass; the duplicate was
        # left queued and served from the cache afterwards
        assert _counter(service, CTR_SERVE_BATCHES) == 1
        assert _counter(service, CTR_SERVE_CACHE_HIT) == 1
        assert a.report["report"]["counts"]["FP32.INF"] == 1
        assert b.report["report"]["counts"]["FP32.NAN"] == 1
        assert dup.cached and dup.report == a.report

    def test_batched_member_equals_solo_run(self):
        """Cache coherence: a megabatch member's payload is identical
        to the same submission executed solo."""
        with JobService() as solo_service:
            solo = solo_service.submit(kernel_job([NAN32] * 32))
            assert solo.wait(60)
        service = JobService()
        a = service.submit(kernel_job([INF32] * 32))
        b = service.submit(kernel_job([NAN32] * 32))
        service.start()
        try:
            assert a.wait(60) and b.wait(60)
        finally:
            service.shutdown()
        assert _counter(service, CTR_SERVE_BATCHES) == 1
        assert json.dumps(b.report, sort_keys=True) \
            == json.dumps(solo.report, sort_keys=True)
        assert b.events == solo.events


#: Copies its input to its output, unless the input is nonzero: then
#: every lane spins on one branch forever.
SPIN_SASS = """
    S2R R0, SR_TID.X ;
    IMAD R4, R0, 0x4, RZ ;
    MOV R6, c[0x0][0x160] ;
    IADD3 R6, R6, R4, RZ ;
    LDG R8, [R6] ;
    ISETP.NE.AND P0, PT, R8, RZ, PT ;
spin:
@P0 BRA spin ;
    MOV R6, c[0x0][0x164] ;
    IADD3 R6, R6, R4, RZ ;
    STG R8, [R6] ;
    EXIT ;
"""


def spin_job(value):
    job = kernel_job([value] * 32, name="spin")
    job["kernel"]["sass"] = SPIN_SASS
    return job


class TestBoundedExecution:
    def test_endless_kernel_fails_and_the_next_job_completes(self):
        with JobService() as service, \
                ServeServer(service, port=0) as server:
            _, resp = _post(server.url + "/v1/jobs", spin_job(ONE32))
            assert service.job(resp["job"]).wait(60)
            status, doc = _get(server.url + resp["href"])
            assert status == 200
            assert doc["status"] == "failed"
            assert doc["error"].startswith("ExecutionError: ")
            assert "execution budget" in doc["error"]

            _, resp = _post(server.url + "/v1/jobs",
                            kernel_job([ONE32] * 32))
            assert service.job(resp["job"]).wait(60)
            status, doc = _get(server.url + resp["href"])
            assert doc["status"] == "done"
            assert doc["report"]["outputs"][0] == [0x40000000] * 32

    def test_only_the_endless_member_of_a_stacked_batch_fails(self, caplog):
        service = JobService()
        # staged before start(): one stacked batch of two members
        good = service.submit(spin_job(0))
        bad = service.submit(spin_job(ONE32))
        service.start()
        try:
            assert good.wait(60) and bad.wait(60)
        finally:
            service.shutdown()
        assert "stacked batch of 2 jobs failed" in caplog.text
        assert bad.status == "failed"
        assert bad.error.startswith("ExecutionError: ")
        assert good.status == "done"
        assert good.report["outputs"] == [[0] * 32]
        assert _counter(service, CTR_SERVE_BATCHES) == 0


class TestShutdown:
    def test_drain_finishes_inflight_and_queued_jobs(self):
        service = JobService()
        jobs = [service.submit(kernel_job([INF32 + i] * 32))
                for i in range(3)]
        service.start()
        service.shutdown(drain=True)  # must block until all are done
        assert all(job.done.is_set() for job in jobs)
        assert all(job.status == "done" for job in jobs)

    def test_no_submissions_after_shutdown(self):
        service = JobService().start()
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit(kernel_job([ONE32] * 32))

    def test_http_503_after_shutdown(self):
        service = JobService().start()
        with ServeServer(service, port=0) as server:
            service.shutdown()
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(server.url + "/v1/jobs", kernel_job([ONE32] * 32))
            assert exc_info.value.code == 503

    def test_no_drain_fails_queued_jobs(self):
        service = JobService()  # executor never started
        job = service.submit(kernel_job([ONE32] * 32))
        service.start()
        service.shutdown(drain=False)
        assert job.done.is_set()
        # either the executor got to it first (done) or it was failed
        assert job.status in ("done", "failed")


class TestTelemetryMerge:
    def test_job_snapshot_equals_direct_run_and_merges(self):
        body = kernel_job([NAN32] * 32)
        with JobService() as service:
            job = service.submit(body)
            assert job.wait(60)
        with telemetry_session() as tel:
            _run_kernel(job.request)
            direct = snapshot_registry(tel)
        # every counter of the job reaches the service registry...
        for name, value in direct["counters"].items():
            assert _counter(service, name) == value
        # ...but no span or event is kept, on the registry or the job
        assert direct["spans"] and direct["events"]
        assert service.telemetry.spans == []
        assert service.telemetry.events == []
        assert not hasattr(job, "telemetry")

    def test_stacked_batch_merges_once(self):
        service = JobService()
        # staged before start(): one stacked batch of four members
        jobs = [service.submit(kernel_job([ONE32 + i] * 32))
                for i in range(4)]
        service.start()
        try:
            assert all(job.wait(60) for job in jobs)
        finally:
            service.shutdown()
        assert [_counter(service, name) for name in (
            CTR_SERVE_BATCHES, CTR_MEGABATCH_BATCHES,
            CTR_MEGABATCH_MEMBERS)] == [1, 1, 4]


class TestRetention:
    def test_state_stays_bounded_over_many_jobs(self):
        """Three times the retention bound of cache-hit duplicates
        plus a few distinct kernel jobs: the service keeps at most
        RETAINED_JOBS finished jobs and no spans or events, and
        answers 410 for an evicted id, 404 for one never issued."""
        bodies = [kernel_job([ONE32 + i] * 32) for i in range(4)]
        total = 3 * RETAINED_JOBS + 4
        with JobService(ServeConfig(queue_depth=total)) as service, \
                ServeServer(service, port=0) as server:
            held = [service.submit(bodies[n % len(bodies)])
                    for n in range(total)]
            first = held[0]
            assert all(job.wait(60) for job in held)
            assert len(service.jobs()) <= RETAINED_JOBS
            assert service.telemetry.spans == []
            assert service.telemetry.events == []
            assert _counter(service, CTR_SERVE_JOBS_COMPLETED) == total
            # a caller holding an evicted job keeps it
            assert service.job(first.id) is None
            assert first.status == "done" and first.report is not None
            for href in (f"/v1/jobs/{first.id}",
                         f"/v1/jobs/{first.id}/events"):
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    _get(server.url + href)
                assert exc_info.value.code == 410
                assert str(RETAINED_JOBS) \
                    in json.loads(exc_info.value.read())["error"]
            for never in (f"job-{total + 1:06d}", "job-1", "job-000000"):
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    _get(server.url + f"/v1/jobs/{never}")
                assert exc_info.value.code == 404
            status, listing = _get(server.url + "/v1/jobs")
            assert status == 200
            assert len(listing["jobs"]) <= RETAINED_JOBS
            assert listing["jobs"][-1]["job"] == held[-1].id


class TestCLIByteIdentity:
    def test_job_report_matches_cli_json(self, capsys):
        assert cli.main(["run", "myocyte", "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        with JobService() as service:
            job = service.submit({"workload": "myocyte",
                                  "tool": "detector"})
            assert job.wait(120)
        assert json.dumps(job.report, indent=2, sort_keys=True) \
            == json.dumps(cli_payload, indent=2, sort_keys=True)

    def test_analyzer_events_split_out_of_report(self, capsys):
        assert cli.main(["run", "myocyte", "--tool", "analyzer",
                         "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        with JobService() as service:
            job = service.submit({"workload": "myocyte",
                                  "tool": "analyzer"})
            assert job.wait(120)
        # the report document matches the CLI's (which has no events
        # key); the flow events are served separately on /events
        assert json.dumps(job.report, sort_keys=True) \
            == json.dumps(cli_payload, sort_keys=True)
        assert job.events
        assert job.events[0]["classification"]["kind"]
        assert job.report["analyzer"]["schema_version"] == 1
