"""Seeded request fuzz over ``POST /v1/jobs``.

Sixty-three malformed, mistyped, mismatched and oversized submissions
go to one running service over real HTTP.  Each must answer 4xx, or
202 followed by a ``failed`` job whose error names its exception type,
within :data:`CASE_TIMEOUT_S`.  The one exception is an input array
whose length differs from the thread count: a kernel may take a short
array (``docs/SERVICE.md`` stages two words for 32 threads), and a lane
past its end reads the next buffer, so those jobs may also finish
``done``; they must still finish within the bound.  Afterwards
``/healthz`` must be ok, and once the server and the service stop, no
thread the test started may be left running.
"""

import http.client
import json
import random
import re
import threading
import time

from repro.serve import (
    MAX_OUTPUT_WORDS,
    MAX_THREADS,
    JobService,
    ServeConfig,
    ServeServer,
)
from repro.serve.http import MAX_BODY_BYTES

SEED = 8026
#: Most seconds one case may take from POST to a finished job.
CASE_TIMEOUT_S = 30.0
#: "ExceptionName: message", the service's typed job error.
TYPED_ERROR = re.compile(r"^[A-Za-z_][\w.]*: ")
ONE32 = 0x3F800000

#: tid-indexed load, FADD, store (one input, one output).
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


def _kernel(grid=1, block=32, *, n_bits=None, count=None, sass=None):
    threads = grid * block
    return {
        "kernel": {"name": "fuzz", "sass": sass or KERNEL_SASS,
                   "grid_dim": grid, "block_dim": block},
        "inputs": [{"fmt": "f32",
                    "bits": [ONE32] * (n_bits or threads)}],
        "outputs": [{"fmt": "f32", "count": count or threads}],
        "tool": "detector",
    }


def _with(body, path, value):
    """A deep copy of ``body`` with ``path`` (keys and indices) set."""
    body = json.loads(json.dumps(body))
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


def _cases(rng: random.Random) -> list:
    """``(label, body bytes or None, may_finish_done)``; ``None`` is the
    over-cap Content-Length case."""
    base = _kernel()
    words = ["turbo", "priority", "shared_mem", "deadline_s", "stream",
             "device", "gpu", "retries"]
    cases = []

    def case(label, body, may_run=False):
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        cases.append((label, raw, may_run))

    # malformed JSON and bodies that are not objects
    for raw in (b"{not json", b"", b"{", b'{"workload": "GRAMSCHM"',
                b"\xff\xfe\xfd", b"[" * 50_000, b"1" * 5_000,
                bytes(rng.randrange(256) for _ in range(64))):
        case(f"json:{raw[:12]!r}", raw)
    for body in ([], [base], 7, "GRAMSCHM", None, True):
        case(f"not-object:{type(body).__name__}", body)
    # unknown keys at every level
    for where, path in (("top", ()), ("config", ("config",)),
                        ("options", ("options",)),
                        ("kernel", ("kernel",)),
                        ("inputs[0]", ("inputs", 0)),
                        ("outputs[0]", ("outputs", 0))):
        key = rng.choice(words)
        body = _with({**base, "config": {}, "options": {}}, path + (key,),
                     rng.randrange(1, 100))
        case(f"unknown-key:{where}.{key}", body)
    # wrong types
    for path, value in ((("tool",), 5), (("fast_math",), "yes"),
                        (("config",), []),
                        (("config",), {"use_gt": "yes"}),
                        (("config",), {"freq_redn_factor": "x"}),
                        (("config",), {"freq_redn_factor": -1}),
                        (("config",), {"kernel_whitelist": "k"}),
                        (("options",), ["warp_batch"]),
                        (("options",), {"warp_batch": 1}),
                        (("options",), {"shadow": -2}),
                        (("kernel",), "S2R R0, SR_TID.X ;"),
                        (("kernel", "sass"), 5),
                        (("kernel", "grid_dim"), "2"),
                        (("kernel", "grid_dim"), True),
                        (("kernel", "block_dim"), 2.5),
                        (("inputs",), {"fmt": "f32"}),
                        (("inputs", 0), 5),
                        (("inputs", 0, "bits"), "1,2"),
                        (("inputs", 0, "bits"), [-1]),
                        (("inputs", 0, "bits"), [1.5]),
                        (("inputs", 0, "bits"), [True]),
                        (("inputs", 0, "fmt"), "f16"),
                        (("outputs", 0, "count"), "32"),
                        (("outputs", 0, "count"), 0)):
        case(f"type:{'.'.join(map(str, path))}={value!r}",
             _with(base, path, value))
    case("type:workload=5", {"workload": 5})
    # input arrays whose length does not match the thread count
    for grid, block in ((1, 32), (2, 32), (4, 32)):
        threads = grid * block
        for n_bits in (rng.randrange(1, threads), threads
                       + rng.randrange(1, threads)):
            case(f"shape:{n_bits}-words-for-{threads}-threads",
                 _kernel(grid, block, n_bits=n_bits), may_run=True)
    case("shape:no-inputs", {k: v for k, v in base.items()
                             if k != "inputs"})
    case("shape:no-outputs", {k: v for k, v in base.items()
                              if k != "outputs"})
    # SASS that fails to assemble
    junk = " ".join(rng.choice(["FADD", "R1", ",", ";", "0x7f", "@P0",
                                "BRA", "c[0x0]"]) for _ in range(12))
    for sass in ("FOO R1 ;", "FADD R1 ;", "BRA nowhere ;\nEXIT ;",
                 "FADD R1, R2, R3", junk):
        case(f"sass:{sass[:16]!r}", _with(base, ("kernel", "sass"), sass))
    # oversized geometry and outputs, then an over-cap Content-Length
    case("size:1024x1024", _kernel(1024, 1024, n_bits=32, count=32))
    case("size:grid-2^20", _kernel(1 << 20, 32, n_bits=32, count=32))
    case(f"size:{MAX_THREADS // 32 + 1}x32",
         _kernel(MAX_THREADS // 32 + 1, 32, n_bits=32, count=32))
    case(f"size:output-{MAX_OUTPUT_WORDS + 1}",
         _kernel(count=MAX_OUTPUT_WORDS + 1))
    cases.append(("size:content-length", None, False))
    return cases


def _post(port: int, raw: bytes | None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=CASE_TIMEOUT_S)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        length = MAX_BODY_BYTES + 1 if raw is None else len(raw)
        conn.putheader("Content-Length", str(length))
        conn.endheaders()
        if raw:
            conn.send(raw)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=CASE_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _outcome(service, port, raw, may_run) -> str | None:
    """What is wrong with one case's handling, or ``None``."""
    status, doc = _post(port, raw)
    if 400 <= status < 500:
        return None if "error" in doc else f"{status} without an error"
    if status != 202:
        return f"answered {status}"
    job = service.job(doc["job"])
    if not job.wait(CASE_TIMEOUT_S):
        return f"job still {job.status} after {CASE_TIMEOUT_S} s"
    status, doc = _get(port, f"/v1/jobs/{job.id}")
    if status != 200:
        return f"GET answered {status}"
    if doc["status"] == "done" and may_run:
        return None
    if doc["status"] != "failed":
        return f"job finished {doc['status']}"
    if not TYPED_ERROR.match(doc.get("error", "")):
        return f"untyped error {doc.get('error')!r}"
    return None


def test_fuzzed_submissions_are_refused_or_fail_typed():
    cases = _cases(random.Random(SEED))
    assert 45 <= len(cases) <= 70
    before = {t.ident for t in threading.enumerate()}
    start = threading.active_count()
    problems = []
    service = JobService(ServeConfig(queue_depth=len(cases)))
    server = ServeServer(service, port=0)
    try:
        service.start()
        server.start()
        for label, raw, may_run in cases:
            t0 = time.monotonic()
            try:
                problem = _outcome(service, server.port, raw, may_run)
            except Exception as exc:  # no answer, or not JSON
                problem = f"{type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - t0
            if problem is None and elapsed > CASE_TIMEOUT_S:
                problem = f"took {elapsed:.1f} s"
            if problem is not None:
                problems.append(f"{label}: {problem}")
        status, health = _get(server.port, "/healthz")
        assert status == 200 and health["status"] == "ok", health
    finally:
        server.stop()
        service.shutdown(timeout=CASE_TIMEOUT_S)
    assert not problems, "\n".join(problems)
    leaked = [t for t in threading.enumerate() if t.ident not in before]
    for thread in leaked:
        thread.join(timeout=5.0)
    leaked = [t for t in leaked if t.is_alive()]
    assert not leaked, f"threads left running: {leaked}"
    assert threading.active_count() <= start
