"""The differential conformance engine.

Every :class:`~repro.conformance.generator.Case` is executed on all
four execution paths and the observable behaviour is compared:

1. **decoded** — the serial pre-decoded micro-op pipeline
   (``Session(warp_batch=False)``), the reference path;
2. **cohort** — the warp-batched engine (the generated two-warp
   geometry makes it genuinely engage);
3. **megabatch** — the launch-batched engine: the case is stacked
   twice through ``Session.run_batch`` and the *second* member (a
   nonzero partition offset) is observed, with the members
   cross-checked for identity;
4. **sweep** — the process-pool fan-out: :func:`fuzz` shards case
   batches through :func:`repro.harness.parallel.run_sweep` and the
   parent re-runs a deterministic sample in-process, comparing digests
   across the pickle boundary.

Paths 1–3 must agree **bit-identically**: output-buffer register state,
the channel-record stream *including order*, the decoded record set and
the rendered report.  They share the decoded closures, so the reference
path is additionally checked against the pure-Python IEEE-754 oracle
(:mod:`.oracle`) — value by value — and against an independent
reimplementation of the Algorithm-1 exception classification
(NaN/INF/SUB/DIV0 per destination).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..api import EXECUTION_PATHS, Session
from ..fpx.detector import FPXDetector
from ..gpu.device import Device, LaunchConfig
from ..harness.parallel import SweepUnit, default_jobs, run_sweep
from ..nvbit.runtime import LaunchSpec
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import (
    CTR_CONFORMANCE_DIVERGED,
    CTR_CONFORMANCE_OK,
    EVT_CONFORMANCE_DIVERGENCE,
    SPAN_CONFORMANCE_CASE,
)
from .generator import Case, generate_case
from .mutation import mutation
from .oracle import (
    APPROX_FUNCS,
    OracleRegs,
    ULP_TOLERANCE,
    classify32,
    classify64,
    eval_op,
    is_nan32_bits,
    is_nan64_bits,
    ulp_distance32,
    ulp_distance64,
)

__all__ = ["CaseOutcome", "FuzzResult", "PathObservation",
           "RecordingDetector", "fuzz", "oracle_outputs", "run_case"]

#: Cases per process-pool sweep unit (amortises worker dispatch).
_BATCH = 8


class RecordingDetector(FPXDetector):
    """An :class:`FPXDetector` that logs the raw channel-record stream
    (in drain order) before handing it to the real host-side logic —
    the stream, not just the deduplicated report, must be identical
    across execution paths."""

    #: The raw stream is member state too: each megabatch member's
    #: drains must match what its own serial launch would have logged.
    _MEMBER_STATE_FIELDS = FPXDetector._MEMBER_STATE_FIELDS + ("messages",)

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self.messages: list[tuple] = []

    def _fresh_member_state(self) -> dict:
        state = super()._fresh_member_state()
        state["messages"] = []
        return state

    def receive(self, messages) -> None:
        batch = list(messages)
        self.messages.extend(_plain_message(m) for m in batch)
        super().receive(batch)


def _plain_message(msg: tuple) -> tuple:
    """A picklable, hashable, canonical rendering of a channel message."""
    out = []
    for part in msg:
        if isinstance(part, dict):
            out.append(tuple(sorted((int(k), int(v))
                                    for k, v in part.items())))
        elif isinstance(part, str):
            out.append(part)
        else:
            out.append(int(part))
    return tuple(out)


@dataclass(frozen=True)
class PathObservation:
    """Everything one execution path did that a user could observe."""

    #: Per body op: the output-buffer words, one per thread.
    outputs: tuple[tuple[int, ...], ...]
    #: The raw channel-record stream, in drain order.
    messages: tuple[tuple, ...]
    #: Decoded report records as ``(pc, kind, fmt)``, arrival order.
    records: tuple[tuple[int, str, str], ...]
    #: The rendered exception report.
    report: tuple[str, ...]


@dataclass
class CaseOutcome:
    """The verdict for one case across all compared paths."""

    case: Case
    observations: dict[str, PathObservation]
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def digest(self) -> str:
        """Stable digest of all observations (for cross-process compare)."""
        h = hashlib.sha256()
        for name in sorted(self.observations):
            h.update(name.encode())
            h.update(repr(self.observations[name]).encode())
        return h.hexdigest()


@dataclass
class FuzzResult:
    """Outcome of one fuzzing run."""

    cases: int
    seed: int
    jobs: int
    failures: list[dict] = field(default_factory=list)
    #: Indices re-run in-process to validate the process-pool path.
    replayed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} DIVERGED"
        return (f"{self.cases} cases (seed {self.seed}, jobs {self.jobs}, "
                f"{self.replayed} pool-replayed): {status}")


# -- running one case --------------------------------------------------------


def _case_device(case: Case) -> tuple[Device, list[int], list[int]]:
    """A fresh device with the case's inputs and output buffers staged."""
    device = Device()
    params: list[int] = []
    for inp in case.inputs:
        dtype = np.uint32 if inp.fmt == "f32" else np.uint64
        params.append(device.alloc_array(np.asarray(inp.bits, dtype=dtype)))
    out_addrs = []
    for op in case.ops:
        word = 8 if op.fmt == "f64" else 4
        addr = device.alloc_zeros(word * case.n_threads)
        out_addrs.append(addr)
        params.append(addr)
    return device, params, out_addrs


def _run_path(code: KernelCode, case: Case, knobs: dict,
              shadow=None) -> PathObservation:
    if knobs.get("megabatch"):
        return _run_path_megabatch(code, case, knobs, shadow)
    device, params, out_addrs = _case_device(case)
    detector = RecordingDetector()
    session = Session(detector, device=device, shadow=shadow, **knobs)
    session.run_schedule([LaunchSpec(
        code, LaunchConfig(case.grid_dim, case.block_dim), tuple(params))])
    outputs = []
    for op, addr in zip(case.ops, out_addrs):
        dtype = np.uint64 if op.fmt == "f64" else np.uint32
        outputs.append(tuple(
            int(v) for v in device.read_back(addr, dtype, case.n_threads)))
    report = detector.report()
    records = tuple((report.sites.site(r.loc).pc, r.kind.name, r.fmt.name)
                    for r in report.records)
    return PathObservation(tuple(outputs), tuple(detector.messages),
                           records, tuple(report.lines()))


#: Members stacked by the megabatch conformance path.  Two is the
#: smallest batch that engages the stacked engine, and member 1 runs at
#: a nonzero partition offset — the adversarial placement.
_MEGABATCH_MEMBERS = 2


def _run_path_megabatch(code: KernelCode, case: Case, knobs: dict,
                        shadow=None) -> PathObservation:
    """The ``megabatch`` path: the case stacked ``_MEGABATCH_MEMBERS``
    times through ``Session.run_batch``.  Every member must observe the
    same thing; the last member is returned (any cross-member mismatch
    is surfaced as an extra report line so the path comparison fails
    loudly)."""
    device, params, out_addrs = _case_device(case)
    detector = RecordingDetector()
    session = Session(detector, device=device, shadow=shadow, **knobs)
    spec = LaunchSpec(code, LaunchConfig(case.grid_dim, case.block_dim),
                      tuple(params))
    result = session.run_batch([spec] * _MEGABATCH_MEMBERS)
    observations = []
    for m in range(_MEGABATCH_MEMBERS):
        report = session.report(member=m)  # binds the member first
        outputs = []
        for op, addr in zip(case.ops, out_addrs):
            dtype = np.uint64 if op.fmt == "f64" else np.uint32
            outputs.append(tuple(
                int(v)
                for v in result.read_back(m, addr, dtype, case.n_threads)))
        records = tuple((report.sites.site(r.loc).pc, r.kind.name,
                         r.fmt.name) for r in report.records)
        observations.append(PathObservation(
            tuple(outputs), tuple(detector.messages), records,
            tuple(report.lines())))
    final = observations[-1]
    if any(obs != observations[0] for obs in observations):
        final = PathObservation(
            final.outputs, final.messages, final.records,
            final.report + ("megabatch: member observations diverged "
                            f"(engine {result.engine})",))
    return final


def oracle_outputs(case: Case) -> list[tuple[int, ...]]:
    """Per-op output words from the pure-Python oracle, lane by lane."""
    outs: list[list[int]] = [[] for _ in case.ops]
    for t in range(case.n_threads):
        regs = OracleRegs()
        for inp in case.inputs:
            if inp.fmt == "f32":
                regs.write_u32(inp.reg, inp.bits[t])
            else:
                regs.write_u32(inp.reg, inp.bits[t] & 0xFFFFFFFF)
                regs.write_u32(inp.reg + 1, inp.bits[t] >> 32)
        for k, op in enumerate(case.ops):
            eval_op(regs, op.opcode, op.mods, op.dest, op.srcs)
            if op.fmt == "f64":
                outs[k].append(regs.read_f64_bits(op.dest))
            else:
                outs[k].append(regs.read_u32(op.dest))
    return [tuple(lane_bits) for lane_bits in outs]


def _op_label(case: Case, k: int) -> str:
    return f"op {k} (pc {case.body_pcs()[k]}: {case.ops[k].text})"


def _compare_paths(case: Case, name: str, obs: PathObservation,
                   ref_name: str, ref: PathObservation) -> list[str]:
    """Bit-identity across engine paths — no tolerance anywhere."""
    out = []
    for k, (a, b) in enumerate(zip(ref.outputs, obs.outputs)):
        if a != b:
            lane = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            out.append(f"{name} vs {ref_name}: output of "
                       f"{_op_label(case, k)} lane {lane}: "
                       f"{b[lane]:#x} != {a[lane]:#x}")
    if obs.messages != ref.messages:
        out.append(f"{name} vs {ref_name}: channel-record streams differ "
                   f"({len(obs.messages)} vs {len(ref.messages)} messages)")
    if obs.records != ref.records:
        out.append(f"{name} vs {ref_name}: exception records differ: "
                   f"{obs.records} != {ref.records}")
    if obs.report != ref.report:
        out.append(f"{name} vs {ref_name}: rendered reports differ")
    return out


def _is_rcp64h_nan(high: int) -> bool:
    return (high & 0x7FF00000) == 0x7FF00000 and (high & 0x000FFFFF) != 0


def _compare_oracle(case: Case, ref_name: str, ref: PathObservation,
                    expected: list[tuple[int, ...]]) -> list[str]:
    """Engine vs oracle values: bit-exact ops compare exactly (NaN
    payloads by class only — see oracle module docstring), libm-backed
    MUFU functions get a small ULP budget."""
    out = []
    for k, op in enumerate(case.ops):
        approx = op.opcode == "MUFU" and bool(set(op.mods) & APPROX_FUNCS)
        for lane, (got, want) in enumerate(zip(ref.outputs[k], expected[k])):
            if got == want:
                continue
            if op.fmt == "f64":
                if is_nan64_bits(got) and is_nan64_bits(want):
                    continue
            elif op.fmt == "rcp64h":
                if _is_rcp64h_nan(got) and _is_rcp64h_nan(want):
                    continue
                # The seed is the high 32 bits of the FP64 reciprocal, so
                # one seed ULP spans 2^32 binary64 ULPs: widen both high
                # words to full patterns and budget in seed units.
                if ulp_distance64(got << 32, want << 32) \
                        <= ULP_TOLERANCE << 32:
                    continue
            else:
                if is_nan32_bits(got) and is_nan32_bits(want):
                    continue
                if approx and ulp_distance32(got, want) <= ULP_TOLERANCE:
                    continue
            out.append(f"oracle vs {ref_name}: {_op_label(case, k)} "
                       f"lane {lane}: engine {got:#x}, oracle {want:#x}")
    return out


def _expected_records(case: Case,
                      outputs: tuple[tuple[int, ...], ...]
                      ) -> set[tuple[int, str, str]]:
    """Independent Algorithm-1 classification of the observed outputs."""
    expected: set[tuple[int, str, str]] = set()
    for k, (op, pc) in enumerate(zip(case.ops, case.body_pcs())):
        for bits in outputs[k]:
            if op.opcode == "MUFU" and "RCP" in op.mods:
                if classify32(bits) in ("NAN", "INF"):
                    expected.add((pc, "DIV0", "FP32"))
            elif op.fmt == "rcp64h":
                if classify64(bits << 32) in ("NAN", "INF"):
                    expected.add((pc, "DIV0", "FP64"))
            elif op.fmt == "f64":
                cls = classify64(bits)
                if cls != "VAL":
                    expected.add((pc, cls, "FP64"))
            else:
                cls = classify32(bits)
                if cls != "VAL":
                    expected.add((pc, cls, "FP32"))
    return expected


def run_case(case: Case, paths: dict[str, dict] | None = None,
             shadow=None) -> CaseOutcome:
    """Run one case on every in-process path and compare everything.

    ``shadow`` turns on the shadow-precision plane for every path; the
    comparisons are unchanged, so a green run proves the shadow does not
    perturb primary outputs, channel streams or classifications.
    """
    tel = get_telemetry()
    paths = EXECUTION_PATHS if paths is None else paths
    code = KernelCode.assemble(case.name, case.sass())
    with tel.span(SPAN_CONFORMANCE_CASE, case=case.name):
        observations = {name: _run_path(code, case, knobs, shadow)
                        for name, knobs in paths.items()}
    outcome = CaseOutcome(case, observations)
    ref_name = next(iter(paths))
    ref = observations[ref_name]
    for name, obs in observations.items():
        if name != ref_name:
            outcome.divergences += _compare_paths(case, name, obs,
                                                  ref_name, ref)
    outcome.divergences += _compare_oracle(case, ref_name, ref,
                                           oracle_outputs(case))
    got_records = set(ref.records)
    want_records = _expected_records(case, ref.outputs)
    if got_records != want_records:
        outcome.divergences.append(
            f"classification vs {ref_name}: detector reported "
            f"{sorted(got_records)}, oracle classified "
            f"{sorted(want_records)}")
    if outcome.ok:
        tel.count(CTR_CONFORMANCE_OK)
    else:
        tel.count(CTR_CONFORMANCE_DIVERGED)
        tel.event(EVT_CONFORMANCE_DIVERGENCE, case=case.name,
                  detail=outcome.divergences[0])
    return outcome


# -- the fuzzing loop (path 4: the process-pool sweep) -----------------------


def _case_summary(case: Case, outcome: CaseOutcome) -> dict:
    return {"name": case.name, "ok": outcome.ok,
            "divergences": list(outcome.divergences),
            "digest": outcome.digest()}


def _batch_unit(seed: int, start: int, count: int,
                mutations: tuple[str, ...],
                skip_paths: tuple[str, ...] = (),
                shadow=None) -> list[dict]:
    """One sweep unit: run ``count`` consecutive generated cases.

    Runs inside a worker process (or inline at ``jobs=1``); mutations
    are re-applied explicitly so behaviour does not depend on what the
    worker inherited at fork time.
    """
    paths = _paths_without(skip_paths)
    with mutation(*mutations):
        out = []
        for index in range(start, start + count):
            case = generate_case(seed, index)
            summary = _case_summary(case, run_case(case, paths, shadow))
            summary["index"] = index
            out.append(summary)
        return out


def _paths_without(skip_paths: tuple[str, ...]) -> dict[str, dict]:
    """The in-process path set minus ``skip_paths`` (module-level so
    batch units stay picklable)."""
    paths = {name: knobs for name, knobs in EXECUTION_PATHS.items()
             if name not in skip_paths}
    if not paths:
        raise ValueError("skip_paths removed every execution path")
    return paths


def fuzz(cases: int, seed: int, jobs: int | None = None, *,
         mutations: tuple[str, ...] = (),
         replay_stride: int | None = None,
         skip_paths: tuple[str, ...] = (),
         shadow=None) -> FuzzResult:
    """Differentially fuzz ``cases`` generated cases.

    Case batches are sharded through :func:`run_sweep` (the fourth
    execution path); the parent then re-runs every ``replay_stride``-th
    case in-process and compares observation digests, proving the
    pooled results match an in-process run bit for bit.  Generation is
    keyed on ``(seed, index)``, so the result is independent of
    ``jobs``.
    """
    from ..harness.pool import pool_available

    jobs = default_jobs() if jobs is None else max(1, jobs)
    # The batch units are picklable partials, so the persistent pool can
    # run them on any start method; only a platform without one
    # degrades to jobs=1.
    if jobs > 1 and not pool_available():
        jobs = 1  # pragma: no cover - no-multiprocessing platform
    units = [SweepUnit(f"conformance/{seed}/{start}",
                       partial(_batch_unit, seed, start,
                               min(_BATCH, cases - start), tuple(mutations),
                               tuple(skip_paths), shadow))
             for start in range(0, cases, _BATCH)]
    result = run_sweep(units, jobs=jobs)
    summaries = [s for batch in result.values_strict() for s in batch]

    failures = [s for s in summaries if not s["ok"]]
    replay_stride = max(1, cases // 24) if replay_stride is None \
        else max(1, replay_stride)
    replayed = 0
    replay_paths = _paths_without(tuple(skip_paths))
    with mutation(*mutations):
        for index in range(0, cases, replay_stride):
            replayed += 1
            outcome = run_case(generate_case(seed, index), replay_paths,
                               shadow)
            if outcome.digest() != summaries[index]["digest"]:
                failures.append({
                    "name": summaries[index]["name"], "index": index,
                    "ok": False,
                    "divergences": [
                        "sweep vs in-process: pooled observation digest "
                        f"{summaries[index]['digest'][:16]}… != in-process "
                        f"{outcome.digest()[:16]}…"],
                    "digest": outcome.digest()})
    failures.sort(key=lambda f: f["index"])
    return FuzzResult(cases=cases, seed=seed, jobs=jobs,
                      failures=failures, replayed=replayed)
