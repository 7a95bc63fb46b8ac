"""``repro.serve`` — the async exception-checking job service.

A stdlib-only (``http.server`` + threads) HTTP front end over
:class:`repro.api.Session`: clients POST a kernel program — raw SASS
text, or a workload name from the benchmark registry — plus inputs and
a tool/config, and poll a job id for the versioned detector/analyzer
report (:data:`repro.fpx.report.REPORT_SCHEMA_VERSION`).

Routes::

    POST /v1/jobs            submit; 202 {"job": id, ...}
                             400 malformed or oversized, 429 queue full
    GET  /v1/jobs            live and retained job ids with statuses
    GET  /v1/jobs/<id>       status, then the full report JSON;
                             410 once evicted, 404 if never issued
    GET  /v1/jobs/<id>/events   the exception/flow event records
    GET  /metrics|/healthz|/flight   the mounted MetricsServer routes

The service executes jobs on a single dispatcher thread through
:class:`~repro.api.Session`; compatible queued kernel jobs are stacked
through ``Session.run_batch`` (one megabatch pass, per-member reports),
and a bounded LRU result cache keyed on (kernel fingerprint, plan
fingerprint, input digest) serves duplicate submissions without
re-execution.  Each executed pass's counters, gauges and histograms
merge into a service-wide registry exposed — together with the
``serve.*`` counters — through a *mounted*
:class:`~repro.telemetry.server.MetricsServer` on the same port as the
job API; spans and events are not kept, and only the
:data:`~repro.serve.service.RETAINED_JOBS` most recently finished jobs
stay retrievable.  ``python -m repro.cli serve`` runs it.
"""

from .cache import ResultCache
from .http import ServeServer
from .jobs import (
    MAX_OUTPUT_WORDS,
    MAX_THREADS,
    BadRequest,
    Job,
    JobRequest,
    parse_request,
)
from .service import (
    RETAINED_JOBS,
    JobService,
    QueueFull,
    ServeConfig,
    ServiceClosed,
)

__all__ = [
    "BadRequest",
    "Job",
    "JobRequest",
    "JobService",
    "MAX_OUTPUT_WORDS",
    "MAX_THREADS",
    "QueueFull",
    "RETAINED_JOBS",
    "ResultCache",
    "ServeConfig",
    "ServeServer",
    "ServiceClosed",
    "parse_request",
]
