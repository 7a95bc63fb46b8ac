"""Job model and submission validation for the job service.

A submission is one JSON object naming either a registry ``workload``
or an ad-hoc ``kernel`` (SASS text plus staged inputs/outputs)::

    {"workload": "myocyte", "tool": "detector", "fast_math": false}

    {"kernel": {"name": "k", "sass": "...", "grid_dim": 1,
                "block_dim": 32},
     "inputs":  [{"fmt": "f32", "bits": [1065353216, ...]}],
     "outputs": [{"fmt": "f32", "count": 32}],
     "tool": "detector",
     "config": {"use_gt": true},
     "options": {"warp_batch": true}}

:func:`parse_request` validates everything up front —
:class:`BadRequest` maps to HTTP 400 — and normalises the body into a
frozen, hashable :class:`JobRequest` whose :meth:`~JobRequest.cache_key`
and :meth:`~JobRequest.batch_key` drive the result cache and the
megabatch stacker.  Unknown keys and wrongly typed values are refused,
and so is a kernel job past :data:`MAX_THREADS` threads or with an
output past :data:`MAX_OUTPUT_WORDS` words, so its size is bounded
before it runs.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "BadRequest",
    "Job",
    "JobRequest",
    "MAX_OUTPUT_WORDS",
    "MAX_THREADS",
    "parse_request",
]

TOOLS = ("detector", "analyzer", "binfpe")
#: Tools an ad-hoc kernel job may run (binfpe is workload-only).
KERNEL_TOOLS = ("detector", "analyzer")
FORMATS = ("f32", "f64")
FMT_WORD = {"f32": 4, "f64": 8}
#: DetectorConfig fields a submission's ``config`` object may set.
CONFIG_KEYS = ("use_gt", "on_device_check", "freq_redn_factor",
               "kernel_whitelist")
#: Engine knobs a submission's ``options`` object may set.  All are
#: booleans except ``shadow``, which also accepts a non-negative
#: integer ULP threshold.
OPTION_KEYS = ("warp_batch", "megabatch", "shadow")
#: Top-level keys of a submission, and the keys of its ``kernel``,
#: ``inputs[i]`` and ``outputs[i]`` objects.
BODY_KEYS = ("workload", "kernel", "tool", "fast_math", "config",
             "options", "inputs", "outputs")
KERNEL_KEYS = ("name", "sass", "grid_dim", "block_dim")
INPUT_KEYS = ("fmt", "bits")
OUTPUT_KEYS = ("fmt", "count")
#: Most threads (``grid_dim * block_dim``) one kernel job may launch.
#: The executor allocates every warp's register file up front (32 KB a
#: warp), so this caps those registers at 4 MB before the job runs.
MAX_THREADS = 4096
#: Most words one ``outputs[i]`` buffer may hold.
MAX_OUTPUT_WORDS = 4096


class BadRequest(ValueError):
    """A malformed job submission (rendered as HTTP 400)."""


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobRequest:
    """One validated, normalised submission."""

    kind: str                       # "workload" | "kernel"
    tool: str
    workload: str | None = None
    fast_math: bool = False
    kernel_name: str | None = None
    sass: str | None = None
    grid_dim: int = 1
    block_dim: int = 32
    #: ``((fmt, (bits, ...)), ...)`` — one staged array per parameter.
    inputs: tuple = ()
    #: ``((fmt, count), ...)`` — zeroed output buffers, appended after
    #: the inputs in parameter order.
    outputs: tuple = ()
    #: sorted ``(key, value)`` DetectorConfig overrides.
    config: tuple = ()
    #: sorted ``(key, bool)`` engine-knob overrides.
    options: tuple = ()

    def option(self, name: str, default: bool = True) -> bool:
        return dict(self.options).get(name, default)

    # -- fingerprints -----------------------------------------------------
    #
    # The request is frozen, so each key is hashed once and kept: the
    # dispatcher reads both keys of every queued request on every take
    # it waits through, under the lock that submit() also needs.

    def kernel_fingerprint(self) -> str:
        """sha256 of the program identity (SASS text or workload name)."""
        return self._cache_key[0]

    def plan_fingerprint(self) -> str:
        """sha256 of everything that shapes the instrumentation plan
        and execution: tool, config, engine knobs, geometry, options."""
        return self._cache_key[1]

    def input_digest(self) -> str:
        return self._cache_key[2]

    def cache_key(self) -> tuple[str, str, str]:
        """The result-cache key: two identical submissions — byte for
        byte the same program, plan and inputs — share one entry."""
        return self._cache_key

    def batch_key(self) -> tuple | None:
        """Megabatch compatibility class, or ``None`` when unstackable.

        Kernel detector jobs with the same SASS, geometry, config and
        knobs (inputs may differ — that is the point) stack through
        ``Session.run_batch``; workload and analyzer jobs, and jobs
        that disabled the megabatch knob, run solo.
        """
        return self._batch_key

    @cached_property
    def _cache_key(self) -> tuple[str, str, str]:
        program = (["workload", self.workload] if self.kind == "workload"
                   else ["kernel", self.kernel_name, self.sass])
        return (_digest(program),
                _digest([self.tool, list(self.config), list(self.options),
                         self.fast_math, self.grid_dim, self.block_dim]),
                _digest([[fmt, list(bits)] for fmt, bits in self.inputs]
                        + [[fmt, count] for fmt, count in self.outputs]))

    @cached_property
    def _batch_key(self) -> tuple | None:
        if self.kind != "kernel" or self.tool != "detector" \
                or not self.option("megabatch"):
            return None
        return (self.kernel_fingerprint(), self.plan_fingerprint(),
                tuple(fmt for fmt, _ in self.inputs), self.outputs)


@dataclass
class Job:
    """One submission's lifecycle: queued → running → done | failed."""

    id: str
    request: JobRequest
    status: str = "queued"
    #: Wall-clock submission time (display/API only — subject to clock
    #: steps; never used for arithmetic).
    submitted: float = field(default_factory=time.time)
    #: Monotonic submission time — the companion used for queue-age and
    #: duration math, immune to wall-clock adjustments.
    submitted_mono: float = field(default_factory=time.monotonic)
    #: The versioned report payload (for workload jobs, byte-identical
    #: to the CLI's ``run --json`` output for the same run).
    report: dict | None = None
    #: The exception/flow event records, served on ``/events``.
    events: list | None = None
    error: str | None = None
    cached: bool = False
    done: threading.Event = field(default_factory=threading.Event)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finished (or failed)."""
        return self.done.wait(timeout)

    def status_json(self) -> dict:
        out = {
            "job": self.id,
            "status": self.status,
            "kind": self.request.kind,
            "tool": self.request.tool,
            "cached": self.cached,
        }
        if self.report is not None:
            out["report"] = self.report
        if self.error is not None:
            out["error"] = self.error
        return out

    def events_json(self) -> dict:
        return {
            "job": self.id,
            "status": self.status,
            "events": self.events if self.events is not None else [],
        }


# -- validation ---------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadRequest(message)


def _is_int(value) -> bool:
    """A JSON integer (``true``/``false`` are not integers here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _known_keys(obj: dict, allowed: tuple, where: str) -> None:
    for key in obj:
        _require(key in allowed,
                 f"unknown {where} key {key!r}; expected one of "
                 f"{', '.join(allowed)}")


def _parse_config(raw) -> tuple:
    if raw is None:
        return ()
    _require(isinstance(raw, dict), "'config' must be an object")
    _known_keys(raw, CONFIG_KEYS, "config")
    for key in ("use_gt", "on_device_check"):
        _require(isinstance(raw.get(key, True), bool),
                 f"'config.{key}' must be a boolean")
    frf = raw.get("freq_redn_factor", 0)
    _require(_is_int(frf) and frf >= 0,
             "'config.freq_redn_factor' must be a non-negative integer")
    out = dict(raw)
    if "kernel_whitelist" in out and out["kernel_whitelist"] is not None:
        wl = out["kernel_whitelist"]
        _require(isinstance(wl, list)
                 and all(isinstance(k, str) for k in wl),
                 "'config.kernel_whitelist' must be a list of strings")
        out["kernel_whitelist"] = tuple(sorted(wl))
    return tuple(sorted(out.items()))


def _parse_options(raw) -> tuple:
    if raw is None:
        return ()
    _require(isinstance(raw, dict), "'options' must be an object")
    for key, value in raw.items():
        _require(key in OPTION_KEYS,
                 f"unknown option {key!r}; expected one of "
                 f"{', '.join(OPTION_KEYS)}")
        if key == "shadow":
            _require(isinstance(value, bool)
                     or (isinstance(value, int) and value >= 0),
                     "option 'shadow' must be a boolean or a "
                     "non-negative integer ULP threshold")
        else:
            _require(isinstance(value, bool),
                     f"option {key!r} must be a boolean")
    return tuple(sorted(raw.items()))


def _parse_inputs(raw) -> tuple:
    if raw is None:
        return ()
    _require(isinstance(raw, list), "'inputs' must be a list")
    out = []
    for i, inp in enumerate(raw):
        _require(isinstance(inp, dict), f"inputs[{i}] must be an object")
        _known_keys(inp, INPUT_KEYS, f"inputs[{i}]")
        fmt = inp.get("fmt", "f32")
        _require(fmt in FORMATS, f"inputs[{i}].fmt must be f32 or f64")
        bits = inp.get("bits")
        _require(isinstance(bits, list) and bits
                 and all(_is_int(b) and b >= 0 for b in bits),
                 f"inputs[{i}].bits must be a non-empty list of "
                 f"non-negative integers")
        limit = 1 << (64 if fmt == "f64" else 32)
        _require(all(b < limit for b in bits),
                 f"inputs[{i}].bits contains values too wide for {fmt}")
        out.append((fmt, tuple(bits)))
    return tuple(out)


def _parse_outputs(raw) -> tuple:
    if raw is None:
        return ()
    _require(isinstance(raw, list), "'outputs' must be a list")
    out = []
    for i, spec in enumerate(raw):
        _require(isinstance(spec, dict), f"outputs[{i}] must be an object")
        _known_keys(spec, OUTPUT_KEYS, f"outputs[{i}]")
        fmt = spec.get("fmt", "f32")
        _require(fmt in FORMATS, f"outputs[{i}].fmt must be f32 or f64")
        count = spec.get("count")
        _require(_is_int(count) and count > 0,
                 f"outputs[{i}].count must be a positive integer")
        _require(count <= MAX_OUTPUT_WORDS,
                 f"outputs[{i}].count is {count}; a job may read back at "
                 f"most {MAX_OUTPUT_WORDS} words per output")
        out.append((fmt, count))
    return tuple(out)


def parse_request(body) -> JobRequest:
    """Validate one submission body; raises :class:`BadRequest`."""
    _require(isinstance(body, dict), "submission body must be a JSON "
                                     "object")
    _known_keys(body, BODY_KEYS, "submission")
    tool = body.get("tool", "detector")
    _require(tool in TOOLS,
             f"unknown tool {tool!r}; expected one of {', '.join(TOOLS)}")
    has_workload = "workload" in body
    has_kernel = "kernel" in body
    _require(has_workload != has_kernel,
             "submit exactly one of 'workload' (a registry program "
             "name) or 'kernel' (SASS text)")
    fast_math = body.get("fast_math", False)
    _require(isinstance(fast_math, bool), "'fast_math' must be a boolean")
    config = _parse_config(body.get("config"))
    _require(not config or tool == "detector",
             "'config' applies to the detector tool only")
    options = _parse_options(body.get("options"))

    if has_workload:
        name = body["workload"]
        _require(isinstance(name, str) and name,
                 "'workload' must be a program name")
        from ..workloads import program_by_name
        try:
            program_by_name(name)
        except KeyError:
            raise BadRequest(f"unknown workload {name!r}; see "
                             f"'repro list'") from None
        for key in ("inputs", "outputs"):
            _require(key not in body,
                     f"'{key}' applies to kernel jobs only")
        return JobRequest(kind="workload", tool=tool, workload=name,
                          fast_math=fast_math, config=config,
                          options=options)

    kernel = body["kernel"]
    _require(isinstance(kernel, dict), "'kernel' must be an object")
    _known_keys(kernel, KERNEL_KEYS, "kernel")
    _require(tool in KERNEL_TOOLS,
             f"kernel jobs run under {' or '.join(KERNEL_TOOLS)}, "
             f"not {tool!r}")
    name = kernel.get("name", "kernel")
    _require(isinstance(name, str) and name,
             "'kernel.name' must be a non-empty string")
    sass = kernel.get("sass")
    _require(isinstance(sass, str) and sass.strip(),
             "'kernel.sass' must be the non-empty SASS text")
    grid = kernel.get("grid_dim", 1)
    block = kernel.get("block_dim", 32)
    _require(_is_int(grid) and grid > 0,
             "'kernel.grid_dim' must be a positive integer")
    _require(_is_int(block) and 0 < block <= 1024,
             "'kernel.block_dim' must be in 1..1024")
    _require(grid * block <= MAX_THREADS,
             f"a kernel job launches at most {MAX_THREADS} threads "
             f"(grid_dim * block_dim); this one asks for {grid * block}")
    _require("fast_math" not in body or not body["fast_math"],
             "'fast_math' applies to workload jobs only")
    return JobRequest(kind="kernel", tool=tool, kernel_name=name,
                      sass=sass, grid_dim=grid, block_dim=block,
                      inputs=_parse_inputs(body.get("inputs")),
                      outputs=_parse_outputs(body.get("outputs")),
                      config=config, options=options)
