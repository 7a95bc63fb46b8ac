"""The stdlib HTTP front end for :class:`~repro.serve.service.JobService`.

A :class:`~http.server.ThreadingHTTPServer` (daemon threads, no
third-party dependency) translating the routes in
:mod:`repro.serve` into service calls.  The exposition routes —
``/metrics``, ``/healthz``, ``/flight`` — are answered by delegating
to the service's *mounted* :class:`~repro.telemetry.server.MetricsServer`
(``metrics.respond(path)``), so one port serves both the job API and
live telemetry instead of the two racing to bind.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .jobs import BadRequest
from .service import RETAINED_JOBS, JobService, QueueFull, ServiceClosed

__all__ = ["ServeServer"]

log = logging.getLogger("repro.serve.http")

#: Submission bodies beyond this are rejected outright (HTTP 400).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds one read from a client's socket may wait.  A client that
#: stops sending mid-request (say, a body shorter than its
#: Content-Length) has its connection closed by ``handle_one_request``
#: instead of pinning a handler thread.
READ_TIMEOUT_S = 10.0


def _json_body(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


class _ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve"

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_S  # StreamRequestHandler applies it
        super().setup()

    # -- routing ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service: JobService = self.server.service
        path = urlsplit(self.path).path
        try:
            mounted = service.metrics.respond(path)
            if mounted is not None:
                self._respond(*mounted)
                return
            if path.rstrip("/") == "/v1/jobs":
                self._json(200, {"jobs": [
                    {"job": j.id, "status": j.status}
                    for j in service.jobs()]})
                return
            parts = [p for p in path.split("/") if p]
            if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "jobs":
                job_id = parts[2] if len(parts) > 2 else ""
                job = service.job(job_id)
                if job is None and service.evicted(job_id):
                    self._json(410, {"error": (
                        f"job {job_id} was evicted: the service keeps "
                        f"the {RETAINED_JOBS} most recently finished "
                        f"jobs")})
                elif job is None:
                    self._json(404, {"error": "no such job"})
                elif len(parts) == 3:
                    self._json(200, job.status_json())
                elif len(parts) == 4 and parts[3] == "events":
                    self._json(200, job.events_json())
                else:
                    self._json(404, {"error": "not found"})
                return
            self._json(404, {
                "error": "not found; try /v1/jobs, /metrics, /healthz"})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service: JobService = self.server.service
        path = urlsplit(self.path).path
        try:
            if path.rstrip("/") != "/v1/jobs":
                self._json(404, {"error": "POST /v1/jobs to submit"})
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                self._json(400, {"error": "missing or oversized body"})
                return
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                # ValueError covers bad UTF-8, bad JSON and integers
                # past the interpreter's digit limit; RecursionError,
                # arrays nested too deep to parse.
                self._json(400, {"error": f"body is not JSON: {exc}"})
                return
            try:
                job = service.submit(body)
            except BadRequest as exc:
                self._json(400, {"error": str(exc)})
                return
            except QueueFull as exc:
                self._json(429, {"error": str(exc)})
                return
            except ServiceClosed as exc:
                self._json(503, {"error": str(exc)})
                return
            self._json(202, {"job": job.id, "status": job.status,
                             "href": f"/v1/jobs/{job.id}"})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # -- plumbing ---------------------------------------------------------

    def _json(self, status: int, obj) -> None:
        self._respond(status, "application/json", _json_body(obj))

    def _respond(self, status: int, ctype: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)


class ServeServer:
    """The threaded job-API listener; start/stop or use as a context.

    Mirrors :class:`~repro.telemetry.server.MetricsServer`'s lifecycle:
    port ``0`` binds an ephemeral port, resolved through :attr:`port`
    after :meth:`start`.
    """

    def __init__(self, service: JobService, *, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.service = service
        self._requested = (host, port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServeServer":
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(self._requested, _ServeHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-serve-http")
        self._thread.start()
        log.info("job service listening on %s", self.url)
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self._requested[0]}:{self.port}"
