"""The decode/execute split: pre-decoded micro-op programs.

The legacy interpreter re-resolves opcode semantics through a string-keyed
dispatch table, re-walks ``source_operands()``, re-checks ``.FTZ``/abs/neg
modifiers and probes the per-pc injection dicts on *every* executed
instruction.  This module does that work exactly once per kernel: each
:class:`~repro.sass.instruction.Instruction` is decoded into a
:class:`DecodedOp` whose ``execute`` closure has the semantic handler
bound, every source/destination operand resolved to a pre-built accessor
(immediate and GENERIC operands become shared constant vectors with
modifiers and flush-to-zero already folded in), branch targets resolved to
pcs, and the tool's before/after injections fused into per-op slots — the
inner loop never consults a dict again.

This is the same decode-once/execute-many economics GPU-FPX gets from
instrumenting SASS once at JIT time rather than interpreting per dynamic
instruction, applied to the simulator itself.  Decoded programs carry no
launch state (constant-bank reads, memory and warp state are fetched
through the runner at execute time), so one decoded program is shared by
every warp, launch and repeat of its kernel.

Semantics are intentionally bit-identical to the legacy path in
:mod:`repro.gpu.executor`; ``tests/test_decode_equivalence.py`` holds the
two pipelines to identical register state, exception reports and channel
byte counts over every registered workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from ..sass.instruction import Instruction
from ..sass.operands import Operand, OperandType
from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import CTR_DIVERGENT_BRANCHES
from .executor import (
    _CMP_MODS,
    _GENERIC_FP,
    ExecutionError,
    Injection,
    _ffma32,
    _fma64,
    _ftz32,
    fp_compare,
)
from .sfu import mufu_f32, mufu_rcp64h
from .shadow import shadow_slots
from .warp import WARP_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from ..nvbit.plan import InstrumentationPlan
    from .executor import _WarpRunner

__all__ = ["DecodedOp", "DecodedProgram", "decode_program", "fuse_plan"]

#: Accessor signature: fetch one operand's 32-lane vector from a runner.
SrcFn = Callable[["_WarpRunner"], np.ndarray]
#: Handler signature: execute one micro-op; True when warp.pc was set.
ExecFn = Callable[["_WarpRunner", np.ndarray], bool]

_LANES = np.arange(WARP_SIZE, dtype=np.uint32)

_MUFU_EXEC_FUNCS = ("RCP", "RCP64H", "RSQ", "SQRT", "EX2", "LG2", "SIN",
                    "COS")


#: Opcodes the cohort engine must run warp-at-a-time: per-warp scalars
#: (S2R), per-block shared memory (LDS/STS), and control flow that
#: rebinds pc / active masks / divergence stacks.  Everything else has
#: shape-generic semantics over a stacked ``(n_warps, 32)`` view.
_SERIAL_ONLY_OPCODES = frozenset(
    {"S2R", "LDS", "STS", "BRA", "SSY", "SYNC", "BAR", "EXIT"})


@dataclass(slots=True)
class DecodedOp:
    """One instruction, resolved exactly once."""

    pc: int
    #: The original instruction (injections and error paths still see it).
    instr: Instruction
    #: ``(pred_num, negated)`` guard, or ``None`` for unguarded ops.
    guard: tuple[int, bool] | None
    #: Static issue+latency charge (the opcode's ``OpInfo.cycles``).
    cycles: float
    #: Counts toward fp_warp_instrs / fp_thread_instrs.
    is_fp: bool
    execute: ExecFn
    #: The opcode mnemonic, precomputed so the hotspot profiler's hot
    #: loops avoid the ``instr`` attribute hop.
    opcode: str = ""
    #: True when ``execute`` is shape-generic over a stacked cohort view
    #: (see :data:`_SERIAL_ONLY_OPCODES` for the exceptions).
    vectorizable: bool = True
    #: True when any operand reads a constant bank.  Constant banks are
    #: launch-scalar, so the megabatch engine must execute such ops one
    #: member launch at a time (members carry different params).
    uses_cbank: bool = False
    #: True for LDG/STG — the megabatch engine routes these through a
    #: per-member-partitioned global-memory view.
    uses_global: bool = False
    #: Fused injection slots — empty tuples on the bare decoded program.
    before: tuple[Injection, ...] = ()
    after: tuple[Injection, ...] = ()
    #: Static shadow-plane behaviour at this pc (``ShadowSlot`` from
    #: :mod:`repro.gpu.shadow`), or ``None`` when the shadow ignores the
    #: op entirely.  Resolved unconditionally — slots are cheap, static
    #: and launch-independent — so the decode-cache key is unchanged and
    #: a cached program works for shadow-on and shadow-off sessions.
    shadow: object = None


@dataclass
class DecodedProgram:
    """A kernel's micro-op array, indexed by pc."""

    name: str
    code: KernelCode
    ops: tuple[DecodedOp, ...]
    #: True when a tool's plan has been fused in (even an empty plan:
    #: an instrumented launch of an injection-free kernel still pays JIT).
    instrumented: bool = False
    plan_fingerprint: str = ""
    #: True when the cohort engine can run this program: every op that
    #: carries injections is vectorizable and every injection has a
    #: cohort-aware probe.  Bare programs are always ready; a plan whose
    #: tool lacks cohort probes (e.g. a stateful legacy tool) falls back
    #: to the serial per-warp loop.
    cohort_ready: bool = True

    def __len__(self) -> int:
        return len(self.ops)


def decode_program(code: KernelCode) -> DecodedProgram:
    """Decode a kernel once; memoised on the (frozen) code object."""
    cached = getattr(code, "_decoded_bare", None)
    if cached is not None:
        return cached
    ops = tuple(_decode_instr(code, instr) for instr in code.instructions)
    slots = shadow_slots(code)
    for op in ops:
        op.shadow = slots[op.pc]
    prog = DecodedProgram(code.name, code, ops)
    code._decoded_bare = prog
    return prog


def fuse_plan(prog: DecodedProgram, plan: "InstrumentationPlan",
              observer: int = 0) -> DecodedProgram:
    """Bind observer ``observer``'s declarative plan into per-op
    injection slots.

    Fusing onto an already-fused program overlays the plans: each op
    keeps the earlier observers' injections and appends this one's, and
    every :class:`~repro.gpu.executor.Injection` carries its observer so
    the engines charge the right ledger.  Returns a new program (the
    bare decode stays shareable); fusion is a cheap O(ops) pass, so
    re-fusing after a decode-cache hit on the bare program still skips
    all per-instruction resolution work.  Ops with no injection are the
    input program's own (immutable in use) objects.
    """
    before: dict[int, list[Injection]] = {}
    after: dict[int, list[Injection]] = {}
    for entry in plan.entries:
        bucket = before if entry.when == "before" else after
        bucket.setdefault(entry.pc, []).append(
            Injection(entry.when, entry.fn, entry.args,
                      getattr(entry, "cohort_fn", None), observer))
    ops = tuple(
        dataclasses.replace(op,
                            before=op.before + tuple(before.get(op.pc, ())),
                            after=op.after + tuple(after.get(op.pc, ())))
        if op.pc in before or op.pc in after else op
        for op in prog.ops)
    cohort_ready = all(
        op.vectorizable and all(inj.cohort_fn is not None
                                for inj in op.before + op.after)
        for op in ops if op.before or op.after)
    tag = plan.fingerprint if observer == 0 \
        else f"{observer}:{plan.fingerprint}"
    if prog.instrumented:
        tag = f"{prog.plan_fingerprint}|{tag}"
    return DecodedProgram(prog.name, prog.code, ops, instrumented=True,
                          plan_fingerprint=tag,
                          cohort_ready=cohort_ready)


# ---------------------------------------------------------------------------
# decode-time context + operand accessor factories
# ---------------------------------------------------------------------------


class _Ctx:
    """Decode-time view of one instruction (error context + accessors)."""

    __slots__ = ("code", "instr")

    def __init__(self, code: KernelCode, instr: Instruction) -> None:
        self.code = code
        self.instr = instr

    def error(self, msg: str) -> ExecutionError:
        instr = self.instr
        return ExecutionError(
            f"{self.code.name}: {msg} at pc {instr.pc}: {instr.getSASS()}")

    # -- f32 sources -------------------------------------------------------

    def src_f32(self, op: Operand, ftz: bool = False) -> SrcFn:
        t = op.type
        if t is OperandType.REG:
            num = op.num
            fetch: SrcFn = lambda st: st.warp.read_f32(num)
            return _wrap_float_mods(fetch, op, ftz)
        if t is OperandType.CBANK:
            cid, off = op.cbank_id, op.offset

            def fetch(st):
                bits = st.launch.cbanks.read_u32(cid, off)
                return np.full(WARP_SIZE, np.uint32(bits),
                               dtype=np.uint32).view(np.float32)
            return _wrap_float_mods(fetch, op, ftz)
        if t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE, np.float32(op.value), dtype=np.float32)
        elif t is OperandType.GENERIC:
            text = op.text.upper()
            if text not in _GENERIC_FP:
                raise self.error(f"bad GENERIC fp operand {op.text!r}")
            vals = np.full(WARP_SIZE, np.float32(_GENERIC_FP[text]),
                           dtype=np.float32)
        else:
            raise self.error(f"operand not usable as f32 source: {op}")
        return _const(_fold_float_mods(vals, op, ftz))

    # -- f64 sources -------------------------------------------------------

    def src_f64(self, op: Operand) -> SrcFn:
        t = op.type
        if t is OperandType.REG:
            num = op.num
            fetch: SrcFn = lambda st: st.warp.read_f64_pair(num)
            return _wrap_float_mods(fetch, op, False)
        if t is OperandType.CBANK:
            cid, off = op.cbank_id, op.offset

            def fetch(st):
                bits = st.launch.cbanks.read_u64(cid, off)
                return np.full(WARP_SIZE, np.uint64(bits),
                               dtype=np.uint64).view(np.float64)
            return _wrap_float_mods(fetch, op, False)
        if t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE, np.float64(op.value), dtype=np.float64)
        elif t is OperandType.GENERIC:
            text = op.text.upper()
            if text not in _GENERIC_FP:
                raise self.error(f"bad GENERIC fp operand {op.text!r}")
            vals = np.full(WARP_SIZE, np.float64(_GENERIC_FP[text]),
                           dtype=np.float64)
        else:
            raise self.error(f"operand not usable as f64 source: {op}")
        return _const(_fold_float_mods(vals, op, False))

    # -- u32 sources -------------------------------------------------------

    def src_u32(self, op: Operand) -> SrcFn:
        t = op.type
        if t is OperandType.REG:
            num = op.num
            if op.negated:
                return lambda st: (np.uint32(0) - st.warp.read_u32(num)
                                   ).astype(np.uint32)
            return lambda st: st.warp.read_u32(num).copy()
        if t is OperandType.CBANK:
            cid, off = op.cbank_id, op.offset

            def fetch(st):
                return np.full(WARP_SIZE,
                               np.uint32(st.launch.cbanks.read_u32(cid, off)),
                               dtype=np.uint32)
            if op.negated:
                return lambda st: (np.uint32(0) - fetch(st)).astype(np.uint32)
            return fetch
        if t is OperandType.IMM_INT:
            vals = np.full(WARP_SIZE, np.uint32(op.ivalue & 0xFFFFFFFF),
                           dtype=np.uint32)
        elif t is OperandType.IMM_DOUBLE:
            vals = np.full(WARP_SIZE, np.float32(op.value),
                           dtype=np.float32).view(np.uint32)
        else:
            raise self.error(f"operand not usable as u32 source: {op}")
        if op.negated:
            vals = (np.uint32(0) - vals).astype(np.uint32)
        return _const(vals)


def _const(vals: np.ndarray) -> SrcFn:
    # Shared across executions: no handler mutates source vectors in
    # place (verified by the golden-equivalence suite).
    return lambda st: vals


def _fold_float_mods(vals: np.ndarray, op: Operand,
                     ftz: bool) -> np.ndarray:
    if op.absolute:
        vals = np.abs(vals)
    if op.negated:
        vals = -vals
    if ftz:
        vals = _ftz32(vals)
    return vals


def _wrap_float_mods(fetch: SrcFn, op: Operand, ftz: bool) -> SrcFn:
    # Modifier order matches the legacy path: abs, then neg, then the
    # handler-level flush-to-zero.
    if op.absolute:
        inner_abs = fetch
        fetch = lambda st: np.abs(inner_abs(st))
    if op.negated:
        inner_neg = fetch
        fetch = lambda st: -inner_neg(st)
    if ftz:
        inner_ftz = fetch
        fetch = lambda st: _ftz32(inner_ftz(st))
    return fetch


# ---------------------------------------------------------------------------
# per-opcode decoders: Instruction -> bound execute closure
# ---------------------------------------------------------------------------


def _dec_fp32_binary(fn):
    def dec(ctx: _Ctx) -> ExecFn:
        instr = ctx.instr
        srcs = instr.source_operands()
        ftz = instr.has_modifier("FTZ")
        a = ctx.src_f32(srcs[0], ftz)
        b = ctx.src_f32(srcs[1], ftz)
        dest = instr.dest_reg()
        if ftz:
            def ex(st, mask):
                d = fn(a(st), b(st)).astype(np.float32)
                st.warp.write_f32(dest, _ftz32(d), mask)
                return False
        else:
            def ex(st, mask):
                st.warp.write_f32(dest, fn(a(st), b(st)).astype(np.float32),
                                  mask)
                return False
        return ex
    return dec


def _dec_ffma(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    ftz = instr.has_modifier("FTZ")
    a = ctx.src_f32(srcs[0], ftz)
    b = ctx.src_f32(srcs[1], ftz)
    c = ctx.src_f32(srcs[2], ftz)
    dest = instr.dest_reg()
    if ftz:
        def ex(st, mask):
            st.warp.write_f32(dest, _ftz32(_ffma32(a(st), b(st), c(st))),
                              mask)
            return False
    else:
        def ex(st, mask):
            st.warp.write_f32(dest, _ffma32(a(st), b(st), c(st)), mask)
            return False
    return ex


def _dec_mufu(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    func = next((m for m in instr.modifiers if m in _MUFU_EXEC_FUNCS), None)
    if func is None:
        raise ctx.error("MUFU without function")
    src = instr.source_operands()[0]
    dest = instr.dest_reg()
    if func == "RCP64H":
        if src.type is not OperandType.REG:
            raise ctx.error("MUFU.RCP64H needs a register source")
        num = src.num

        def ex(st, mask):
            st.warp.write_u32(dest, mufu_rcp64h(st.warp.read_u32(num)), mask)
            return False
        return ex
    ftz = instr.has_modifier("FTZ")
    x = ctx.src_f32(src, ftz)
    if ftz:
        def ex(st, mask):
            st.warp.write_f32(dest, _ftz32(mufu_f32(func, x(st))), mask)
            return False
    else:
        def ex(st, mask):
            st.warp.write_f32(dest, mufu_f32(func, x(st)), mask)
            return False
    return ex


def _dec_fchk(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    pd = instr.dest_pred()
    srcs = instr.source_operands()
    a = ctx.src_f32(srcs[0])
    b = ctx.src_f32(srcs[1])

    def ex(st, mask):
        bits_b = b(st).view(np.uint32)
        exp_b = (bits_b & np.uint32(0x7F800000))
        bad_b = (exp_b == 0) | (exp_b == np.uint32(0x7F800000))
        bits_a = a(st).view(np.uint32)
        exp_a = bits_a & np.uint32(0x7F800000)
        bad_a = exp_a == np.uint32(0x7F800000)
        extreme = (exp_a >= np.uint32(0x7E000000)) | \
                  (exp_b >= np.uint32(0x7E000000))
        st.warp.write_pred(pd, bad_a | bad_b | extreme, mask)
        return False
    return ex


def _dec_fp64_binary(fn):
    def dec(ctx: _Ctx) -> ExecFn:
        instr = ctx.instr
        srcs = instr.source_operands()
        a = ctx.src_f64(srcs[0])
        b = ctx.src_f64(srcs[1])
        dest = instr.dest_reg()

        def ex(st, mask):
            st.warp.write_f64_pair(dest, fn(a(st), b(st)), mask)
            return False
        return ex
    return dec


def _dec_dfma(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_f64(srcs[0])
    b = ctx.src_f64(srcs[1])
    c = ctx.src_f64(srcs[2])
    dest = instr.dest_reg()

    def ex(st, mask):
        st.warp.write_f64_pair(dest, _fma64(a(st), b(st), c(st)), mask)
        return False
    return ex


def _dec_fp16(fn):
    def dec(ctx: _Ctx) -> ExecFn:
        instr = ctx.instr
        accs = [ctx.src_u32(s) for s in instr.source_operands()]
        dest = instr.dest_reg()

        def ex(st, mask):
            vals = []
            for acc in accs:
                u = acc(st)
                lo = (u & np.uint32(0xFFFF)).astype(np.uint16).view(np.float16)
                hi = (u >> np.uint32(16)).astype(np.uint16).view(np.float16)
                vals.append((lo, hi))
            lo = fn(*[v[0] for v in vals]).astype(np.float16)
            hi = fn(*[v[1] for v in vals]).astype(np.float16)
            packed = (lo.view(np.uint16).astype(np.uint32)
                      | (hi.view(np.uint16).astype(np.uint32)
                         << np.uint32(16)))
            st.warp.write_u32(dest, packed, mask)
            return False
        return ex
    return dec


def _dec_fsel(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_f32(srcs[0])
    b = ctx.src_f32(srcs[1])
    p = srcs[2]
    if p.type is not OperandType.PRED:
        raise ctx.error("FSEL needs a predicate source")
    pnum, pneg = p.num, p.negated
    dest = instr.dest_reg()

    def ex(st, mask):
        sel = st.warp.read_pred(pnum, pneg)
        st.warp.write_f32(dest, np.where(sel, a(st), b(st)), mask)
        return False
    return ex


def _dec_fmnmx(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_f32(srcs[0])
    b = ctx.src_f32(srcs[1])
    p = srcs[2]
    pnum, pneg = p.num, p.negated
    dest = instr.dest_reg()

    def ex(st, mask):
        sel = st.warp.read_pred(pnum, pneg)
        av, bv = a(st), b(st)
        st.warp.write_f32(dest, np.where(sel, np.fmin(av, bv),
                                         np.fmax(av, bv)), mask)
        return False
    return ex


def _dec_fset(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    cmp = next((m for m in instr.modifiers if m in _CMP_MODS), None)
    if cmp is None:
        raise ctx.error("FSET without comparison modifier")
    mods = instr.modifiers
    use_and = "AND" in mods or "OR" not in mods
    srcs = instr.source_operands()
    a = ctx.src_f32(srcs[0])
    b = ctx.src_f32(srcs[1])
    p = srcs[2]
    pnum, pneg = p.num, p.negated
    dest = instr.dest_reg()

    def ex(st, mask):
        combine = st.warp.read_pred(pnum, pneg)
        r = fp_compare(a(st), b(st), cmp)
        r = (r & combine) if use_and else (r | combine)
        st.warp.write_f32(dest,
                          np.where(r, np.float32(1.0), np.float32(0.0)),
                          mask)
        return False
    return ex


def _setp_closure(ctx: _Ctx, a: SrcFn, b: SrcFn) -> ExecFn:
    instr = ctx.instr
    cmp = next((m for m in instr.modifiers if m in _CMP_MODS), None)
    if cmp is None:
        raise ctx.error(f"{instr.opcode} without comparison modifier")
    use_or = "OR" in instr.modifiers
    preds = [o for o in instr.operands if o.type is OperandType.PRED]
    if len(preds) < 3:
        raise ctx.error("SETP needs Pdst, Pdst2, ..., Pcombine")
    pdst, pdst2 = preds[0].num, preds[1].num
    pcomb_num, pcomb_neg = preds[-1].num, preds[-1].negated
    if use_or:
        def ex(st, mask):
            warp = st.warp
            combine = warp.read_pred(pcomb_num, pcomb_neg)
            r = fp_compare(a(st), b(st), cmp)
            warp.write_pred(pdst, r | combine, mask)
            warp.write_pred(pdst2, (~r) | combine, mask)
            return False
    else:
        def ex(st, mask):
            warp = st.warp
            combine = warp.read_pred(pcomb_num, pcomb_neg)
            r = fp_compare(a(st), b(st), cmp)
            warp.write_pred(pdst, r & combine, mask)
            warp.write_pred(pdst2, (~r) & combine, mask)
            return False
    return ex


def _dec_fsetp(ctx: _Ctx) -> ExecFn:
    srcs = [o for o in ctx.instr.source_operands()
            if o.type is not OperandType.PRED]
    return _setp_closure(ctx, ctx.src_f32(srcs[0]), ctx.src_f32(srcs[1]))


def _dec_dsetp(ctx: _Ctx) -> ExecFn:
    srcs = [o for o in ctx.instr.source_operands()
            if o.type is not OperandType.PRED]
    return _setp_closure(ctx, ctx.src_f64(srcs[0]), ctx.src_f64(srcs[1]))


def _dec_isetp(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = [o for o in instr.source_operands()
            if o.type is not OperandType.PRED]
    a = ctx.src_u32(srcs[0])
    b = ctx.src_u32(srcs[1])
    if "U32" not in instr.modifiers:
        a_un, b_un = a, b
        a = lambda st: a_un(st).view(np.int32)
        b = lambda st: b_un(st).view(np.int32)
    return _setp_closure(ctx, a, b)


def _dec_f2f(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    mods = [m for m in instr.modifiers if m in ("F16", "F32", "F64")]
    if len(mods) != 2:
        raise ctx.error("F2F needs dst.src widths")
    dst_w, src_w = mods
    src = instr.source_operands()[0]
    dest = instr.dest_reg()
    if src_w == "F64":
        read = ctx.src_f64(src)
    elif src_w == "F32":
        read = ctx.src_f32(src)
    else:
        u = ctx.src_u32(src)
        read = lambda st: (u(st) & np.uint32(0xFFFF)).astype(
            np.uint16).view(np.float16)
    if dst_w == "F64":
        def ex(st, mask):
            st.warp.write_f64_pair(dest, read(st).astype(np.float64), mask)
            return False
    elif dst_w == "F32":
        def ex(st, mask):
            st.warp.write_f32(dest, read(st).astype(np.float32), mask)
            return False
    else:
        def ex(st, mask):
            h = read(st).astype(np.float16).view(np.uint16).astype(
                np.uint32)
            st.warp.write_u32(dest, h, mask)
            return False
    return ex


def _dec_i2f(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    src = ctx.src_u32(instr.source_operands()[0])
    dest = instr.dest_reg()
    if "F64" in instr.modifiers:
        def ex(st, mask):
            st.warp.write_f64_pair(
                dest, src(st).view(np.int32).astype(np.float64), mask)
            return False
    else:
        def ex(st, mask):
            st.warp.write_f32(
                dest, src(st).view(np.int32).astype(np.float32), mask)
            return False
    return ex


def _dec_f2i(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    src = instr.source_operands()[0]
    read = ctx.src_f64(src) if "F64" in instr.modifiers else \
        ctx.src_f32(src)
    dest = instr.dest_reg()

    def ex(st, mask):
        x64 = np.nan_to_num(read(st).astype(np.float64), nan=0.0,
                            posinf=2**31 - 1, neginf=-(2**31))
        vals = np.clip(np.trunc(x64), -(2**31), 2**31 - 1).astype(np.int64)
        st.warp.write_u32(dest, vals.astype(np.int32).view(np.uint32), mask)
        return False
    return ex


def _dec_mov(ctx: _Ctx) -> ExecFn:
    src = ctx.src_u32(ctx.instr.source_operands()[0])
    dest = ctx.instr.dest_reg()

    def ex(st, mask):
        st.warp.write_u32(dest, src(st), mask)
        return False
    return ex


def _dec_iadd3(ctx: _Ctx) -> ExecFn:
    accs = [ctx.src_u32(s) for s in ctx.instr.source_operands()]
    dest = ctx.instr.dest_reg()

    def ex(st, mask):
        # Wrapping uint32 sum (the low word of the exact sum).  Out of
        # place: the sum must take whatever shape the operands have
        # ((32,) per-warp or (n, 32) per-cohort), and constant sources
        # are shared vectors.
        total = accs[0](st)
        for acc in accs[1:]:
            total = total + acc(st)
        st.warp.write_u32(dest, total, mask)
        return False
    return ex


def _dec_imad(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_u32(srcs[0])
    b = ctx.src_u32(srcs[1])
    c = ctx.src_u32(srcs[2]) if len(srcs) > 2 else None
    dest = instr.dest_reg()
    wide = "WIDE" in instr.modifiers

    if wide:
        def ex(st, mask):
            av = a(st).astype(np.uint64)
            bv = b(st).astype(np.uint64)
            prod = av * bv
            if c is not None:
                prod = prod + c(st)
            st.warp.write_u32(dest,
                              (prod & np.uint64(0xFFFFFFFF)).astype(
                                  np.uint32), mask)
            st.warp.write_u32(dest + 1,
                              (prod >> np.uint64(32)).astype(np.uint32),
                              mask)
            return False
    elif c is not None:
        # Wrapping uint32 multiply-add: the low word of the exact result.
        def ex(st, mask):
            st.warp.write_u32(dest, a(st) * b(st) + c(st), mask)
            return False
    else:
        def ex(st, mask):
            st.warp.write_u32(dest, a(st) * b(st), mask)
            return False
    return ex


def _dec_lop3(ctx: _Ctx) -> ExecFn:
    srcs = ctx.instr.source_operands()
    a = ctx.src_u32(srcs[0])
    b = ctx.src_u32(srcs[1])
    c = ctx.src_u32(srcs[2])
    lut = srcs[3].ivalue if len(srcs) > 3 else 0xC0
    minterms = tuple(m for m in range(8) if (lut >> m) & 1)
    dest = ctx.instr.dest_reg()

    def ex(st, mask):
        av, bv, cv = a(st), b(st), c(st)
        # Out-of-place OR-reduction so the result broadcasts to the
        # operand shape ((32,) per-warp or (n, 32) per-cohort).
        out = None
        for minterm in minterms:
            am = av if (minterm & 4) else ~av
            bm = bv if (minterm & 2) else ~bv
            cm = cv if (minterm & 1) else ~cv
            term = am & bm & cm
            out = term if out is None else out | term
        if out is None:
            out = np.zeros(WARP_SIZE, dtype=np.uint32)
        st.warp.write_u32(dest, out, mask)
        return False
    return ex


def _dec_shf(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_u32(srcs[0])
    s = ctx.src_u32(srcs[1])
    right = "R" in instr.modifiers
    dest = instr.dest_reg()

    def ex(st, mask):
        sh = s(st) & np.uint32(31)
        out = (a(st) >> sh) if right else (a(st) << sh)
        st.warp.write_u32(dest, out.astype(np.uint32), mask)
        return False
    return ex


def _dec_sel(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    srcs = instr.source_operands()
    a = ctx.src_u32(srcs[0])
    b = ctx.src_u32(srcs[1])
    p = srcs[2]
    if p.type is not OperandType.PRED:
        raise ctx.error("SEL needs a predicate source")
    pnum, pneg = p.num, p.negated
    dest = instr.dest_reg()

    def ex(st, mask):
        sel = st.warp.read_pred(pnum, pneg)
        st.warp.write_u32(dest, np.where(sel, a(st), b(st)), mask)
        return False
    return ex


def _dec_s2r(ctx: _Ctx) -> ExecFn:
    instr = ctx.instr
    name = instr.source_operands()[0].text.upper()
    dest = instr.dest_reg()
    if name in ("SR_TID.X", "SR_TID"):
        def ex(st, mask):
            warp = st.warp
            block_threads = warp.first_thread - warp.block_id * \
                st.launch.block_dim
            warp.write_u32(dest, np.uint32(block_threads) + _LANES, mask)
            return False
    elif name in ("SR_CTAID.X", "SR_CTAID"):
        def ex(st, mask):
            st.warp.write_u32(dest,
                              np.full(WARP_SIZE, np.uint32(st.warp.block_id),
                                      dtype=np.uint32), mask)
            return False
    elif name == "SR_LANEID":
        def ex(st, mask):
            st.warp.write_u32(dest, _LANES, mask)
            return False
    elif name == "SR_NTID.X":
        def ex(st, mask):
            st.warp.write_u32(dest,
                              np.full(WARP_SIZE,
                                      np.uint32(st.launch.block_dim),
                                      dtype=np.uint32), mask)
            return False
    elif name == "SR_GRIDDIM.X":
        def ex(st, mask):
            st.warp.write_u32(dest,
                              np.full(WARP_SIZE,
                                      np.uint32(st.launch.grid_dim),
                                      dtype=np.uint32), mask)
            return False
    else:
        raise ctx.error(f"unknown special register {name!r}")
    return ex


def _mref(ctx: _Ctx) -> tuple[int, np.uint32]:
    m = next(o for o in ctx.instr.operands if o.type is OperandType.MREF)
    return m.num, np.uint32(m.offset & 0xFFFFFFFF)


def _dec_ldg(ctx: _Ctx) -> ExecFn:
    num, off = _mref(ctx)
    dest = ctx.instr.dest_reg()
    if "64" in ctx.instr.modifiers:
        def ex(st, mask):
            addrs = st.warp.read_u32(num).astype(np.uint32) + off
            low, high = st.launch.global_mem.load_u64(addrs, mask)
            st.warp.write_u32(dest, low, mask)
            st.warp.write_u32(dest + 1, high, mask)
            return False
    else:
        def ex(st, mask):
            addrs = st.warp.read_u32(num).astype(np.uint32) + off
            st.warp.write_u32(dest,
                              st.launch.global_mem.load_u32(addrs, mask),
                              mask)
            return False
    return ex


def _dec_stg(ctx: _Ctx) -> ExecFn:
    num, off = _mref(ctx)
    src = next(o for o in ctx.instr.operands
               if o.type is OperandType.REG).num
    if "64" in ctx.instr.modifiers:
        def ex(st, mask):
            addrs = st.warp.read_u32(num).astype(np.uint32) + off
            st.launch.global_mem.store_u64(addrs, st.warp.read_u32(src),
                                           st.warp.read_u32(src + 1), mask)
            return False
    else:
        def ex(st, mask):
            addrs = st.warp.read_u32(num).astype(np.uint32) + off
            st.launch.global_mem.store_u32(addrs, st.warp.read_u32(src),
                                           mask)
            return False
    return ex


def _dec_ldc(ctx: _Ctx) -> ExecFn:
    src = next(o for o in ctx.instr.operands
               if o.type is OperandType.CBANK)
    cid, off = src.cbank_id, src.offset
    dest = ctx.instr.dest_reg()
    if "64" in ctx.instr.modifiers:
        def ex(st, mask):
            bits = st.launch.cbanks.read_u64(cid, off)
            st.warp.write_u32(dest,
                              np.full(WARP_SIZE,
                                      np.uint32(bits & 0xFFFFFFFF)), mask)
            st.warp.write_u32(dest + 1,
                              np.full(WARP_SIZE, np.uint32(bits >> 32)),
                              mask)
            return False
    else:
        def ex(st, mask):
            bits = st.launch.cbanks.read_u32(cid, off)
            st.warp.write_u32(dest, np.full(WARP_SIZE, np.uint32(bits)),
                              mask)
            return False
    return ex


def _dec_lds(ctx: _Ctx) -> ExecFn:
    num, off = _mref(ctx)
    dest = ctx.instr.dest_reg()

    def ex(st, mask):
        if st.launch.shared is None:
            raise ExecutionError("LDS without shared memory")
        addrs = st.warp.read_u32(num).astype(np.uint32) + off
        st.warp.write_u32(dest, st.launch.shared.load_u32(addrs, mask),
                          mask)
        return False
    return ex


def _dec_sts(ctx: _Ctx) -> ExecFn:
    num, off = _mref(ctx)
    src = next(o for o in ctx.instr.operands
               if o.type is OperandType.REG).num

    def ex(st, mask):
        if st.launch.shared is None:
            raise ExecutionError("STS without shared memory")
        addrs = st.warp.read_u32(num).astype(np.uint32) + off
        st.launch.shared.store_u32(addrs, st.warp.read_u32(src), mask)
        return False
    return ex


def _dec_bra(ctx: _Ctx) -> ExecFn:
    target = ctx.code.target_pc(ctx.instr.pc)

    def ex(st, mask):
        warp = st.warp
        not_taken = warp.active & ~mask
        if not mask.any():
            return False  # falls through
        if not not_taken.any():
            warp.pc = target
            return True
        get_telemetry().count(CTR_DIVERGENT_BRANCHES)
        warp.push_div(target, mask)
        warp.active = not_taken
        return False
    return ex


def _dec_ssy(ctx: _Ctx) -> ExecFn:
    target = ctx.code.target_pc(ctx.instr.pc)

    def ex(st, mask):
        st.warp.push_ssy(target)
        return False
    return ex


def _dec_sync(ctx: _Ctx) -> ExecFn:
    def ex(st, mask):
        st.warp.pop_to_pending()
        return True
    return ex


def _dec_bar(ctx: _Ctx) -> ExecFn:
    next_pc = ctx.instr.pc + 1

    def ex(st, mask):
        st.warp.at_barrier = True
        st.warp.pc = next_pc
        return True
    return ex


def _dec_exit(ctx: _Ctx) -> ExecFn:
    def ex(st, mask):
        warp = st.warp
        remaining = warp.active & ~mask
        warp.exited |= mask
        warp.active = remaining
        if remaining.any():
            return False  # guarded EXIT: surviving lanes fall through
        warp.pop_to_pending()
        return True
    return ex


def _dec_nop(ctx: _Ctx) -> ExecFn:
    def ex(st, mask):
        return False
    return ex


_DECODERS: dict[str, Callable[[_Ctx], ExecFn]] = {
    "FADD": _dec_fp32_binary(lambda a, b: a + b),
    "FADD32I": _dec_fp32_binary(lambda a, b: a + b),
    "FMUL": _dec_fp32_binary(lambda a, b: a * b),
    "FMUL32I": _dec_fp32_binary(lambda a, b: a * b),
    "FFMA": _dec_ffma, "FFMA32I": _dec_ffma,
    "MUFU": _dec_mufu, "FCHK": _dec_fchk,
    "DADD": _dec_fp64_binary(lambda a, b: a + b),
    "DMUL": _dec_fp64_binary(lambda a, b: a * b),
    "DFMA": _dec_dfma,
    "HADD2": _dec_fp16(lambda a, b: a + b),
    "HMUL2": _dec_fp16(lambda a, b: a * b),
    "HFMA2": _dec_fp16(lambda a, b, c: a * b + c),
    "FSEL": _dec_fsel, "FMNMX": _dec_fmnmx,
    "FSET": _dec_fset, "FSETP": _dec_fsetp, "DSETP": _dec_dsetp,
    "F2F": _dec_f2f, "I2F": _dec_i2f, "F2I": _dec_f2i,
    "MOV": _dec_mov, "MOV32I": _dec_mov,
    "IADD3": _dec_iadd3, "IMAD": _dec_imad,
    "ISETP": _dec_isetp, "LOP3": _dec_lop3,
    "SHF": _dec_shf, "S2R": _dec_s2r, "SEL": _dec_sel,
    "LDG": _dec_ldg, "STG": _dec_stg, "LDC": _dec_ldc,
    "LDS": _dec_lds, "STS": _dec_sts,
    "BRA": _dec_bra, "SSY": _dec_ssy, "SYNC": _dec_sync,
    "BAR": _dec_bar, "EXIT": _dec_exit, "NOP": _dec_nop,
}


def _decode_instr(code: KernelCode, instr: Instruction) -> DecodedOp:
    dec = _DECODERS.get(instr.opcode)
    if dec is None:
        raise ExecutionError(
            f"{code.name}: no semantics for opcode {instr.opcode} "
            f"at pc {instr.pc}: {instr.getSASS()}")
    info = instr.info
    guard = (instr.guard.pred_num, instr.guard.negated) \
        if instr.guard is not None else None
    return DecodedOp(
        pc=instr.pc,
        instr=instr,
        guard=guard,
        cycles=float(info.cycles),
        is_fp=bool(info.fp_width),
        execute=dec(_Ctx(code, instr)),
        opcode=instr.opcode,
        vectorizable=instr.opcode not in _SERIAL_ONLY_OPCODES,
        uses_cbank=any(o.type is OperandType.CBANK
                       for o in instr.operands),
        uses_global=instr.opcode in ("LDG", "STG"),
    )
