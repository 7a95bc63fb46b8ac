"""The span / metric / event taxonomy.

Every instrumented call site names its span, counter or event through
these constants so the taxonomy lives in one place (and in
``docs/OBSERVABILITY.md``, whose metric table is *generated* from
:data:`METRIC_DOCS` below — ``tests/test_docs_sync.py`` keeps the two
in lockstep).  Dots namespace by layer: ``gpu.*`` is the simulator,
``nvbit.*`` the interception runtime, ``fpx.*`` the tools,
``run.*``/``workflow.*`` the harness, ``telemetry.*`` the observability
plane itself.
"""

from __future__ import annotations

__all__ = [
    "SPAN_GPU_LAUNCH",
    "SPAN_DECODE",
    "SPAN_NVBIT_DRAIN",
    "SPAN_NVBIT_EXECUTE",
    "SPAN_NVBIT_INSTRUMENT",
    "SPAN_NVBIT_LAUNCH",
    "SPAN_HARNESS_BUILD",
    "SPAN_MEGABATCH",
    "SPAN_RUN_ANALYZER",
    "SPAN_RUN_BASELINE",
    "SPAN_RUN_BINFPE",
    "SPAN_RUN_DETECTOR",
    "SPAN_SERVE_JOB",
    "SPAN_SWEEP",
    "SPAN_WORKFLOW",
    "SPAN_WORKFLOW_PROGRAM",
    "CTR_BUILD_CACHE_HIT",
    "CTR_BUILD_CACHE_MISS",
    "CTR_CHANNEL_BYTES",
    "CTR_CHANNEL_DRAINED",
    "CTR_CHANNEL_PUSHED",
    "CTR_DECODE_CACHE_HIT",
    "CTR_DECODE_CACHE_MISS",
    "CTR_DIVERGENT_BRANCHES",
    "CTR_FLOW_EVENTS",
    "CTR_JIT_HITS",
    "CTR_JIT_MISSES",
    "CTR_MEGABATCH_BATCHES",
    "CTR_MEGABATCH_FALLBACK",
    "CTR_MEGABATCH_MEMBERS",
    "CTR_STRESS_DEDUPED",
    "CTR_EXCEPTIONS_PREFIX",
    "CTR_SHADOW_CHECKS",
    "CTR_SHADOW_DIVERGENCES",
    "CTR_SERVER_SCRAPES",
    "CTR_SWEEP_UNITS_OK",
    "CTR_SWEEP_UNITS_FAILED",
    "CTR_SWEEP_RETRIES",
    "CTR_MERGE_DROPPED",
    "CTR_CONFORMANCE_OK",
    "CTR_CONFORMANCE_DIVERGED",
    "CTR_SERVE_JOBS_SUBMITTED",
    "CTR_SERVE_JOBS_COMPLETED",
    "CTR_SERVE_JOBS_FAILED",
    "CTR_SERVE_JOBS_REJECTED",
    "CTR_SERVE_CACHE_HIT",
    "CTR_SERVE_CACHE_MISS",
    "CTR_SERVE_BATCHES",
    "GAUGE_SERVE_QUEUE_DEPTH",
    "GAUGE_SERVE_INFLIGHT",
    "GAUGE_SWEEP_INFLIGHT",
    "GAUGE_POOL_WORKERS_WARM",
    "GAUGE_POOL_ARENA_BYTES",
    "SPAN_CONFORMANCE_CASE",
    "EVT_CONFORMANCE_DIVERGENCE",
    "EVT_EXCEPTION",
    "EVT_FLOW",
    "EVT_SHADOW",
    "EVT_SWEEP_UNIT_FAILED",
    "HIST_SLOWDOWN_PREFIX",
    "METRIC_DOCS",
    "metric_table_markdown",
]

# -- spans (trace phases) --------------------------------------------------

#: One simulated kernel execution (device level).
SPAN_GPU_LAUNCH = "gpu.launch"
#: One logical launch spec, all repeats (runtime level).
SPAN_NVBIT_LAUNCH = "nvbit.launch"
#: JIT instrumentation of one kernel's SASS (cache miss).
SPAN_NVBIT_INSTRUMENT = "nvbit.instrument"
#: Decoding one kernel into a micro-op program (decode-cache miss).
SPAN_DECODE = "nvbit.decode"
#: One simulated execution under the runtime (wraps gpu.launch).
SPAN_NVBIT_EXECUTE = "nvbit.execute"
#: Draining the GPU→CPU channel into the tool's receiver.
SPAN_NVBIT_DRAIN = "nvbit.drain"
#: Program-level root spans, one per harness entry point.
SPAN_RUN_BASELINE = "run.baseline"
SPAN_RUN_DETECTOR = "run.detector"
SPAN_RUN_BINFPE = "run.binfpe"
SPAN_RUN_ANALYZER = "run.analyzer"
#: The Figure-2 screen-then-analyze pipeline and its per-program legs.
SPAN_WORKFLOW = "workflow.screen_then_analyze"
SPAN_WORKFLOW_PROGRAM = "workflow.program"
#: Building a program's launch schedule (compile + device alloc).
SPAN_HARNESS_BUILD = "harness.build"
#: One whole parallel sweep (fan-out, reduce, telemetry fan-in).
SPAN_SWEEP = "harness.sweep"
#: One differential conformance case (all execution paths + oracle).
SPAN_CONFORMANCE_CASE = "conformance.case"
#: One launch-batched run_batch call (stacked pass or serial fallback).
SPAN_MEGABATCH = "gpu.megabatch"
#: One ``repro.serve`` job, submit-to-completion execution leg.
SPAN_SERVE_JOB = "serve.job"

# -- counters --------------------------------------------------------------

CTR_CHANNEL_PUSHED = "channel.messages.pushed"
CTR_CHANNEL_DRAINED = "channel.messages.drained"
CTR_CHANNEL_BYTES = "channel.bytes"
CTR_DIVERGENT_BRANCHES = "gpu.divergent_branches"
CTR_JIT_HITS = "nvbit.jit.cache_hits"
CTR_JIT_MISSES = "nvbit.jit.cache_misses"
#: Decoded-program cache, keyed on (kernel fingerprint, plan fingerprint).
CTR_DECODE_CACHE_HIT = "decode.cache.hit"
CTR_DECODE_CACHE_MISS = "decode.cache.miss"
CTR_FLOW_EVENTS = "fpx.flow_events"
#: Per-kind exception counters: ``fpx.exceptions.nan`` etc.
CTR_EXCEPTIONS_PREFIX = "fpx.exceptions."
#: Shadow-precision plane accounting: primary-vs-shadow comparisons
#: performed, and lanes whose ULP error crossed the threshold.
CTR_SHADOW_CHECKS = "fpx.shadow.checks"
CTR_SHADOW_DIVERGENCES = "fpx.shadow.divergences"
#: Built-schedule reuse: a hit is a run that restored an existing build
#: (``BuiltProgram.fresh`` after its first use).  ``evaluate`` runs
#: every requested configuration as an observer of one run, so each
#: (program, build) of an evaluation counts one miss and no hit.
CTR_BUILD_CACHE_HIT = "harness.build.cache.hit"
CTR_BUILD_CACHE_MISS = "harness.build.cache.miss"
#: Parallel-sweep scheduler accounting.
CTR_SWEEP_UNITS_OK = "sweep.units.ok"
CTR_SWEEP_UNITS_FAILED = "sweep.units.failed"
CTR_SWEEP_RETRIES = "sweep.retries"
#: Observations discarded by the snapshot merge (histogram bucket
#: mismatch): every dropped sample is counted, never silently lost.
CTR_MERGE_DROPPED = "telemetry.merge.dropped"
#: Differential conformance accounting (repro.conformance).
CTR_CONFORMANCE_OK = "conformance.cases.ok"
CTR_CONFORMANCE_DIVERGED = "conformance.cases.diverged"
#: Launch-batched executor accounting: batches that took the stacked
#: engine, member launches stacked, and batches that fell back to the
#: serial member loop.
CTR_MEGABATCH_BATCHES = "megabatch.batches"
CTR_MEGABATCH_MEMBERS = "megabatch.members"
CTR_MEGABATCH_FALLBACK = "megabatch.fallback"
#: Duplicate stress-test candidates skipped before probing (narrow
#: ranges clip the magnitude ladder onto identical candidates).
CTR_STRESS_DEDUPED = "stress.candidates.deduped"
#: ``/metrics`` requests answered by the live exposition server.
CTR_SERVER_SCRAPES = "telemetry.server.scrapes"
#: Job-service accounting (repro.serve): submissions accepted, jobs
#: finished (from cache or execution), jobs that raised, submissions
#: bounced off the full queue with HTTP 429.
CTR_SERVE_JOBS_SUBMITTED = "serve.jobs.submitted"
CTR_SERVE_JOBS_COMPLETED = "serve.jobs.completed"
CTR_SERVE_JOBS_FAILED = "serve.jobs.failed"
CTR_SERVE_JOBS_REJECTED = "serve.jobs.rejected"
#: Result-cache accounting, keyed on (kernel fingerprint, plan
#: fingerprint, input digest): a hit skips the whole execution leg.
CTR_SERVE_CACHE_HIT = "serve.cache.hit"
CTR_SERVE_CACHE_MISS = "serve.cache.miss"
#: Compatible queued kernel jobs stacked through Session.run_batch.
CTR_SERVE_BATCHES = "serve.batches"

# -- gauges ----------------------------------------------------------------

#: Units currently executing in sweep workers (live view only).
GAUGE_SWEEP_INFLIGHT = "sweep.units.inflight"
#: Job-service queue depth and jobs currently executing.
GAUGE_SERVE_QUEUE_DEPTH = "serve.queue.depth"
GAUGE_SERVE_INFLIGHT = "serve.jobs.inflight"
#: Pool workers whose caches were warm when the sweep started.
GAUGE_POOL_WORKERS_WARM = "pool.workers.warm"
#: Task and result payload bytes over the pool's pipes.  The name
#: predates the pipe transport; benchmark records key on it.
GAUGE_POOL_ARENA_BYTES = "pool.arena.bytes"

# -- structured events -----------------------------------------------------

#: One per unique exception record: kernel, pc, opcode, kind, fmt, where.
EVT_EXCEPTION = "fpx.exception"
#: One per recorded analyzer flow observation.
EVT_FLOW = "fpx.flow"
#: One per unique shadow-divergence site: kernel, pc, opcode, fmt,
#: max_ulp, where.
EVT_SHADOW = "fpx.shadow"
#: One per work unit a sweep gave up on: key, kind, error, attempts,
#: plus the worker's flight-recorder tail (``flight``).
EVT_SWEEP_UNIT_FAILED = "sweep.unit_failed"
#: One per conformance divergence: case key, paths, first mismatch.
EVT_CONFORMANCE_DIVERGENCE = "conformance.divergence"

# -- histograms ------------------------------------------------------------

#: Figure-4-bucketed slowdown distributions: ``slowdown.fpx`` etc.
HIST_SLOWDOWN_PREFIX = "slowdown."

# -- documentation registry ------------------------------------------------

#: ``name -> (kind, one-line description)`` for every public metric.
#: Prefix entries (kind ``counter prefix`` / ``histogram prefix``) cover
#: whole families.  ``docs/OBSERVABILITY.md``'s metric table is rendered
#: from this dict by :func:`metric_table_markdown`; the sync test fails
#: when a constant above is missing here.
METRIC_DOCS: dict[str, tuple[str, str]] = {
    SPAN_GPU_LAUNCH: ("span", "one simulated kernel execution"),
    SPAN_NVBIT_LAUNCH: ("span", "one logical launch spec, all repeats"),
    SPAN_NVBIT_INSTRUMENT: ("span", "JIT instrumentation of one kernel"),
    SPAN_DECODE: ("span", "decoding one kernel into micro-ops"),
    SPAN_NVBIT_EXECUTE: ("span", "one execution under the runtime"),
    SPAN_NVBIT_DRAIN: ("span", "draining the GPU→CPU channel"),
    SPAN_RUN_BASELINE: ("span", "uninstrumented harness run"),
    SPAN_RUN_DETECTOR: ("span", "detector harness run"),
    SPAN_RUN_BINFPE: ("span", "BinFPE-baseline harness run"),
    SPAN_RUN_ANALYZER: ("span", "analyzer harness run"),
    SPAN_WORKFLOW: ("span", "the Figure-2 screen-then-analyze pipeline"),
    SPAN_WORKFLOW_PROGRAM: ("span", "one program leg of the workflow"),
    SPAN_HARNESS_BUILD: ("span", "building a program's launch schedule"),
    SPAN_SWEEP: ("span", "one whole parallel sweep"),
    SPAN_CONFORMANCE_CASE: ("span", "one differential conformance case"),
    SPAN_MEGABATCH: ("span", "one launch-batched run_batch call"),
    SPAN_SERVE_JOB: ("span", "one job-service execution leg"),
    CTR_CHANNEL_PUSHED: ("counter", "GPU→CPU channel messages pushed"),
    CTR_CHANNEL_DRAINED: ("counter", "channel messages drained"),
    CTR_CHANNEL_BYTES: ("counter", "channel payload bytes"),
    CTR_DIVERGENT_BRANCHES: ("counter", "warp-divergent branches taken"),
    CTR_JIT_HITS: ("counter", "instrumentation-plan cache hits"),
    CTR_JIT_MISSES: ("counter", "instrumentation-plan cache misses"),
    CTR_DECODE_CACHE_HIT: ("counter", "decoded-program cache hits"),
    CTR_DECODE_CACHE_MISS: ("counter", "decoded-program cache misses"),
    CTR_FLOW_EVENTS: ("counter", "analyzer flow observations"),
    CTR_EXCEPTIONS_PREFIX: ("counter prefix",
                            "per-kind exception counts (nan, inf, ...)"),
    CTR_SHADOW_CHECKS: ("counter", "primary-vs-shadow comparisons "
                                   "performed"),
    CTR_SHADOW_DIVERGENCES: ("counter", "lanes whose shadow ULP error "
                                        "crossed the threshold"),
    CTR_BUILD_CACHE_HIT: ("counter", "runs that restored an existing "
                                     "build"),
    CTR_BUILD_CACHE_MISS: ("counter", "built-schedule reuse misses"),
    CTR_SWEEP_UNITS_OK: ("counter", "sweep units that succeeded"),
    CTR_SWEEP_UNITS_FAILED: ("counter", "sweep units that ultimately "
                                        "failed"),
    CTR_SWEEP_RETRIES: ("counter", "sweep unit retry attempts"),
    CTR_MERGE_DROPPED: ("counter", "observations dropped by the snapshot "
                                   "merge"),
    CTR_CONFORMANCE_OK: ("counter", "conformance cases that agreed"),
    CTR_CONFORMANCE_DIVERGED: ("counter", "conformance cases that "
                                          "diverged"),
    CTR_MEGABATCH_BATCHES: ("counter", "batches run on the stacked "
                                       "megabatch engine"),
    CTR_MEGABATCH_MEMBERS: ("counter", "member launches stacked into "
                                       "megabatch passes"),
    CTR_MEGABATCH_FALLBACK: ("counter", "batches that fell back to the "
                                        "serial member loop"),
    CTR_STRESS_DEDUPED: ("counter", "duplicate stress candidates skipped "
                                    "before probing"),
    CTR_SERVER_SCRAPES: ("counter", "/metrics requests answered"),
    CTR_SERVE_JOBS_SUBMITTED: ("counter", "job submissions accepted"),
    CTR_SERVE_JOBS_COMPLETED: ("counter", "jobs finished (cache or "
                                          "execution)"),
    CTR_SERVE_JOBS_FAILED: ("counter", "jobs whose execution raised"),
    CTR_SERVE_JOBS_REJECTED: ("counter", "submissions bounced off the "
                                         "full queue (HTTP 429)"),
    CTR_SERVE_CACHE_HIT: ("counter", "job results served from the "
                                     "result cache"),
    CTR_SERVE_CACHE_MISS: ("counter", "job results that had to be "
                                      "computed"),
    CTR_SERVE_BATCHES: ("counter", "compatible kernel jobs stacked "
                                   "through run_batch"),
    GAUGE_SERVE_QUEUE_DEPTH: ("gauge", "jobs waiting in the service "
                                       "queue"),
    GAUGE_SERVE_INFLIGHT: ("gauge", "jobs currently executing"),
    GAUGE_SWEEP_INFLIGHT: ("gauge", "units currently executing in sweep "
                                    "workers (live view)"),
    GAUGE_POOL_WORKERS_WARM: ("gauge", "pool workers with warm caches at "
                                       "sweep start"),
    GAUGE_POOL_ARENA_BYTES: ("gauge", "task and result payload bytes "
                                      "over the pool's pipes"),
    EVT_EXCEPTION: ("event", "one unique exception record"),
    EVT_FLOW: ("event", "one analyzer flow observation"),
    EVT_SHADOW: ("event", "one unique shadow-divergence site"),
    EVT_SWEEP_UNIT_FAILED: ("event", "one abandoned sweep unit, with its "
                                     "worker's flight tail"),
    EVT_CONFORMANCE_DIVERGENCE: ("event", "one conformance divergence"),
    HIST_SLOWDOWN_PREFIX: ("histogram prefix",
                           "Figure-4-bucketed slowdown distributions"),
}


def metric_table_markdown() -> str:
    """The OBSERVABILITY.md metric reference table, one row per name."""
    lines = ["| name | kind | description |",
             "| --- | --- | --- |"]
    for name, (kind, desc) in sorted(METRIC_DOCS.items()):
        suffix = "`*`" if kind.endswith("prefix") else ""
        lines.append(f"| `{name}`{suffix} | {kind} | {desc} |")
    return "\n".join(lines)
