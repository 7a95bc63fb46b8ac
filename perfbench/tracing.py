"""In-memory spans recorded around calls into the system's layers.

The benchmark never edits the system under test: a traced run wraps the
public entry points named in ``WRAPPED`` (class methods and module-level
functions) for the duration of the run and restores them afterwards.
Each call records a :class:`Span` — name, start, end, parent, op id —
into one :class:`Tracer`; a layer's *self* time is its span minus its
direct children.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "WRAPPED"]

#: (module, attribute path, span name) — the layer entry points a traced
#: run wraps.  Module-level functions are patched where callers look
#: them up (``compile_kernel`` is imported by name into the workload
#: modules; the service imports the telemetry merge helpers by name).
WRAPPED = (
    ("repro.workloads.base", "compile_kernel", "compiler.compile"),
    ("repro.workloads.sites", "compile_kernel", "compiler.compile"),
    ("repro.harness.runner", "build_program", "harness.build"),
    ("repro.harness.runner", "run_baseline", "harness.run_baseline"),
    ("repro.harness.runner", "run_detector", "harness.run_detector"),
    ("repro.harness.runner", "run_binfpe", "harness.run_binfpe"),
    ("repro.fpx.detector", "FPXDetector.__init__", "fpx.init"),
    ("repro.gpu.device", "Device.__init__", "gpu.device_init"),
    ("repro.sass.program", "KernelCode.assemble", "sass.assemble"),
    ("repro.api", "Session.run_schedule", "nvbit.run"),
    ("repro.api", "Session.run_batch", "nvbit.run_batch"),
    ("repro.api", "Session.report", "fpx.report"),
    ("repro.serve.service", "snapshot_registry", "telemetry.snapshot"),
    ("repro.serve.service", "merge_snapshot", "telemetry.merge"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    #: Free-form attributes (e.g. batch member counts).
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        """Attribute this thread's following spans to ``op``."""
        self._local.op = op

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), 0.0, parent,
                      getattr(self._local, "op", None), attrs or None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPPED` with a span."""
        for module_name, path, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span_name))
            else:
                patched = self._wrap(raw, span_name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(span_name) as record:
                result = fn(*args, **kwargs)
                if span_name == "nvbit.run_batch":
                    record.attrs = {"engine": result.engine,
                                    "members": result.members}
                return result
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children
        (children run nested on the same thread, so they never overlap)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent,
        op, attrs); times are seconds on the ``perf_counter`` clock."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.op, s.attrs]) + "\n")


def layer_times(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op milliseconds in each wrapped layer, from the spans.

    ``gpu.exec_ms`` is the baseline run without any build nested in it;
    ``fpx.probe_ms`` / ``binfpe.probe_ms`` are the detector / BinFPE
    runs minus that op's baseline run of the same build, summed over ops
    that ran a baseline.
    """
    spans = tracer.spans
    own = tracer.self_times()
    nested_build: dict[int, float] = {}
    for s in spans:
        if s.name == "harness.build" and s.parent is not None:
            nested_build[s.parent] = nested_build.get(s.parent, 0.0) \
                + s.duration
    runs: dict[object, dict[str, list[float]]] = {}
    total: dict[str, float] = {}
    for i, s in enumerate(spans):
        t = s.duration - nested_build.get(i, 0.0)
        if s.name.startswith("harness.run_"):
            runs.setdefault(s.op, {}).setdefault(s.name, []).append(t)
        total[s.name] = total.get(s.name, 0.0) + \
            (own[i] if s.name == "harness.build" else s.duration)
    exec_s = fpx_probe = binfpe_probe = 0.0
    for per_op in runs.values():
        base = per_op.get("harness.run_baseline")
        if not base:
            continue
        one = sum(base) / len(base)
        exec_s += sum(base)
        det = per_op.get("harness.run_detector", [])
        fpx_probe += sum(det) - len(det) * one
        bin_ = per_op.get("harness.run_binfpe", [])
        binfpe_probe += sum(bin_) - len(bin_) * one
    per_op_ms = 1000.0 / max(1, n_ops)
    compiles = sum(1 for s in spans if s.name == "compiler.compile")
    return {
        "compiler.compile_ms": total.get("compiler.compile", 0.0) * per_op_ms,
        "compiler.kernels": compiles / max(1, n_ops),
        "harness.build_ms": total.get("harness.build", 0.0) * per_op_ms,
        "gpu.exec_ms": exec_s * per_op_ms,
        "fpx.probe_ms": fpx_probe * per_op_ms,
        "binfpe.probe_ms": binfpe_probe * per_op_ms,
        "fpx.init_ms": total.get("fpx.init", 0.0) * per_op_ms,
        "fpx.report_ms": total.get("fpx.report", 0.0) * per_op_ms,
        "gpu.device_init_ms": total.get("gpu.device_init", 0.0) * per_op_ms,
        "sass.assemble_ms": total.get("sass.assemble", 0.0) * per_op_ms,
        "nvbit.run_ms": (total.get("nvbit.run", 0.0)
                         + total.get("nvbit.run_batch", 0.0)) * per_op_ms,
        "nvbit.megabatch_fallbacks": sum(
            1 for s in spans if s.name == "nvbit.run_batch"
            and (s.attrs or {}).get("engine") == "serial"),
        "telemetry.job_merge_ms": (total.get("telemetry.snapshot", 0.0)
                                   + total.get("telemetry.merge", 0.0))
        * per_op_ms,
    }
