"""Shadow-precision execution plane: catch silent numerical error.

GPU-FPX (the reproduced tool) only fires on IEEE exceptional values —
NaN, INF, subnormals, div0.  NSan-style shadow execution catches the
errors exceptions never reveal: every FP32 op is re-executed in binary64
and every FP64 op in exact rational arithmetic, alongside (never instead
of) the primary computation.  When the primary result drifts from its
shadow by more than a configurable ULP threshold, a divergence is
reported through :class:`repro.fpx.shadow.ShadowTracker`.

Design constraints, in order:

1. **The shadow never perturbs the primary.**  Shadow state lives in
   separate arrays; the primary execute closures run unchanged and all
   golden-equivalence gates (bit-identical registers, channel streams,
   classifications) hold with the shadow on.
2. **The stacked engines stay fast.**  FP32 shadows are a parallel
   ``(n_warps, NUM_REGS, 32)`` float64 plane driven by the same
   vectorised NumPy expressions as the primary ``(n_warps, 32)`` plane;
   one shadow step is a handful of array ops, not a per-lane loop.
3. **No import cycles.**  This module imports only NumPy and the SASS
   operand model.  The FP64 comparison helpers come from
   :mod:`repro.conformance.oracle` via a lazy function-level import (the
   conformance package imports the execution stack at module scope), and
   event/report plumbing lives in :mod:`repro.fpx.shadow` which imports
   *us*, never the reverse.

Shadow semantics (documented limits, see ``docs/SHADOW.md``):

- A register's shadow is *valid* after a shadowed FP32 write and
  *invalid* after any untracked write (integer ops, loads, converts).
  Invalid shadow sources fall back to the primary value widened to
  binary64 — NSan's "resume from the concrete value" rule — so tracking
  restarts cleanly instead of poisoning everything downstream.
- Global/shared-memory round-trips (``STG``/``LDG``) lose the shadow:
  loads kill.  Workloads that want deep shadow tracking accumulate in
  registers.
- The shadow never flushes subnormals, even for ``.FTZ`` ops: an FTZ
  flush *is* a silent error the shadow should surface.
- Comparison is skipped on lanes whose primary or shadow value is
  non-finite; the exception detector already owns NaN/INF reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..sass.operands import NUM_REGS, RZ, OperandType
from .warp import WARP_SIZE

__all__ = [
    "ShadowConfig",
    "ShadowSlot",
    "ShadowState",
    "build_shadow_slot",
    "default_shadow",
    "normalize_shadow",
    "set_default_shadow",
    "shadow_slots",
]

#: Textual FP immediates, mirrored from the executor's ``_GENERIC_FP``
#: (kept local: importing the executor here would complete a cycle).
_GENERIC_FP = {
    "+INF": np.inf, "INF": np.inf, "-INF": -np.inf,
    "+QNAN": np.nan, "-QNAN": np.nan, "QNAN": np.nan,
    "+NAN": np.nan, "-NAN": np.nan,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowConfig:
    """Knobs for the shadow plane.

    ``ulp_threshold`` is the largest tolerated distance, in FP32 (or
    FP64) ULPs, between a primary result and its shadow re-rounded to
    the primary's precision.  16 ULPs tolerates benign double-rounding
    drift while still firing decades before errors become visible.
    """

    ulp_threshold: int = 16

    def __post_init__(self) -> None:
        if isinstance(self.ulp_threshold, bool) or \
                not isinstance(self.ulp_threshold, int):
            raise TypeError(
                f"ulp_threshold must be an int, got "
                f"{self.ulp_threshold!r}")
        if self.ulp_threshold < 0:
            raise ValueError(
                f"ulp_threshold must be >= 0, got {self.ulp_threshold}")


def _coerce(value) -> ShadowConfig:
    if isinstance(value, ShadowConfig):
        return value
    if value is True:
        return ShadowConfig()
    if isinstance(value, int) and not isinstance(value, bool):
        return ShadowConfig(ulp_threshold=value)
    raise TypeError(f"bad shadow spec {value!r}: expected True, an int "
                    f"ULP threshold, or a ShadowConfig")


#: Process-wide default, set by the CLI's ``--shadow`` flags so every
#: Session constructed during that invocation inherits it.
_DEFAULT: ShadowConfig | None = None


def set_default_shadow(value) -> None:
    """Install the process-wide default shadow mode (None/False clears)."""
    global _DEFAULT
    _DEFAULT = None if value is None or value is False else _coerce(value)


def default_shadow() -> ShadowConfig | None:
    return _DEFAULT


def normalize_shadow(value) -> ShadowConfig | None:
    """Resolve a ``Session(shadow=...)`` argument to a config or None.

    ``None`` defers to the process default; ``False`` forces the shadow
    off regardless of the default (the serve path uses this so
    concurrent jobs never inherit another job's mode).
    """
    if value is None:
        return _DEFAULT
    if value is False:
        return None
    return _coerce(value)


# ---------------------------------------------------------------------------
# static per-instruction shadow slots
# ---------------------------------------------------------------------------


class ShadowSlot:
    """What the shadow plane does at one pc, resolved once per kernel."""

    __slots__ = ("kind", "dest", "srcs", "fn", "pred", "kills", "fmt",
                 "pc", "sass", "source_loc")

    def __init__(self, kind, dest, srcs=(), fn=None, pred=None, kills=(),
                 fmt="FP32", pc=0, sass="", source_loc=None):
        self.kind = kind
        self.dest = dest
        self.srcs = srcs
        self.fn = fn
        self.pred = pred
        self.kills = kills
        self.fmt = fmt
        self.pc = pc
        self.sass = sass
        self.source_loc = source_loc

    @property
    def checked(self) -> bool:
        """True when this slot compares primary vs shadow (can report)."""
        return self.kind in ("f32", "sel32", "mnmx32", "f64")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowSlot({self.kind}, pc={self.pc}, {self.sass!r})"


def _f64(a, b):
    with np.errstate(all="ignore"):
        return a + b


_F32_FNS = {
    "FADD": lambda a, b: a + b,
    "FADD32I": lambda a, b: a + b,
    "FMUL": lambda a, b: a * b,
    "FMUL32I": lambda a, b: a * b,
    "FFMA": lambda a, b, c: a * b + c,
    "FFMA32I": lambda a, b, c: a * b + c,
}

#: binary64 counterparts of :func:`repro.gpu.sfu.mufu_f32`.
_MUFU_FNS = {
    "RCP": lambda x: 1.0 / x,
    "RSQ": lambda x: 1.0 / np.sqrt(x),
    "SQRT": np.sqrt,
    "EX2": np.exp2,
    "LG2": np.log2,
    "SIN": np.sin,
    "COS": np.cos,
}

_D64_FNS = {
    "DADD": lambda a, b: a + b,
    "DMUL": lambda a, b: a * b,
    "DFMA": lambda a, b, c: a * b + c,
}

#: Opcodes with no FP destination register to track at all.
_NO_SHADOW = frozenset({
    "FCHK", "FSETP", "DSETP", "ISETP", "STG", "STS",
    "BRA", "SSY", "SYNC", "BAR", "EXIT", "NOP",
})

#: Untracked register writers: the destination's shadow dies.
_KILL_DEST = frozenset({
    "F2I", "IADD3", "LOP3", "SHF", "SEL", "S2R", "LDS",
    "HADD2", "HMUL2", "HFMA2", "FSET",
})


def _ftz32(value: float) -> float:
    f32 = np.float32(value)
    if f32 != 0.0 and abs(f32) < np.float32(2.0) ** -126:
        return 0.0
    return float(f32)


def _src32(op, ftz: bool):
    """Descriptor for one FP32 source, matching the primary's folding."""
    t = op.type
    if t is OperandType.REG:
        if op.num == RZ:
            v = 0.0
            if op.absolute:
                v = abs(v)
            if op.negated:
                v = -v
            return ("const", v)
        return ("reg", op.num, op.negated, op.absolute)
    if t is OperandType.CBANK:
        return ("cbank", op.cbank_id, op.offset, op.negated, op.absolute)
    if t is OperandType.IMM_DOUBLE:
        v = float(np.float32(op.value))
    elif t is OperandType.GENERIC:
        v = float(np.float32(_GENERIC_FP[op.text.upper()]))
    else:
        raise ValueError(f"operand not usable as f32 source: {op}")
    # Immediates fold abs/neg/ftz exactly like the primary decoder so a
    # constant source can never, by itself, introduce divergence.
    if op.absolute:
        v = abs(v)
    if op.negated:
        v = -v
    if ftz:
        v = _ftz32(v)
    return ("const", v)


def _src64(op):
    """Descriptor for one FP64 source."""
    t = op.type
    if t is OperandType.REG:
        if op.num == RZ:
            v = 0.0
            if op.absolute:
                v = abs(v)
            if op.negated:
                v = -v
            return ("const", v)
        return ("reg", op.num, op.negated, op.absolute)
    if t is OperandType.CBANK:
        return ("cbank64", op.cbank_id, op.offset, op.negated, op.absolute)
    if t is OperandType.IMM_DOUBLE:
        v = float(op.value)
    elif t is OperandType.GENERIC:
        v = float(_GENERIC_FP[op.text.upper()])
    else:
        raise ValueError(f"operand not usable as f64 source: {op}")
    if op.absolute:
        v = abs(v)
    if op.negated:
        v = -v
    return ("const", v)


def _kill_slot(instr, kills):
    return ShadowSlot("kill", None, kills=tuple(k for k in kills
                                                if k != RZ),
                      pc=instr.pc, sass=instr.getSASS(),
                      source_loc=instr.source_loc)


def _build(instr) -> ShadowSlot | None:
    opcode = instr.opcode
    if opcode in _NO_SHADOW:
        return None
    dest = instr.dest_reg()
    if dest is None:
        return None

    common = dict(pc=instr.pc, sass=instr.getSASS(),
                  source_loc=instr.source_loc)

    if opcode in _F32_FNS:
        if dest == RZ:
            return None
        ftz = instr.has_modifier("FTZ")
        srcs = tuple(_src32(op, ftz) for op in instr.source_operands())
        return ShadowSlot("f32", dest, srcs, fn=_F32_FNS[opcode],
                          fmt="FP32", **common)

    if opcode == "MUFU":
        func = next((m for m in instr.modifiers if m in _MUFU_FNS
                     or m == "RCP64H"), None)
        if func == "RCP64H" or func is None:
            # RCP64H writes the high half of an *approximate* FP64
            # reciprocal seed; an exact shadow would flag every use.
            return _kill_slot(instr, (dest,))
        if dest == RZ:
            return None
        ftz = instr.has_modifier("FTZ")
        srcs = (_src32(instr.source_operands()[0], ftz),)
        return ShadowSlot("f32", dest, srcs, fn=_MUFU_FNS[func],
                          fmt="FP32", **common)

    if opcode in ("FSEL", "FMNMX"):
        if dest == RZ:
            return None
        ops = instr.source_operands()
        p = ops[2]
        srcs = (_src32(ops[0], False), _src32(ops[1], False))
        kind = "sel32" if opcode == "FSEL" else "mnmx32"
        return ShadowSlot(kind, dest, srcs, pred=(p.num, p.negated),
                          fmt="FP32", **common)

    if opcode in _D64_FNS:
        if dest == RZ:
            return None
        srcs = tuple(_src64(op) for op in instr.source_operands())
        return ShadowSlot("f64", dest, srcs, fn=_D64_FNS[opcode],
                          fmt="FP64", **common)

    if opcode in ("MOV", "MOV32I"):
        if dest == RZ:
            return None
        src = instr.source_operands()[0]
        if src.type is OperandType.REG and not src.negated \
                and not src.absolute and src.num != RZ:
            return ShadowSlot("mov32", dest, (("reg", src.num),), **common)
        return _kill_slot(instr, (dest,))

    if opcode in _KILL_DEST:
        return _kill_slot(instr, (dest,))
    if opcode == "F2F":
        widths = [m for m in instr.modifiers if m in ("F16", "F32", "F64")]
        wide = widths and widths[0] == "F64"
        return _kill_slot(instr, (dest, dest + 1) if wide else (dest,))
    if opcode == "I2F":
        wide = "F64" in instr.modifiers
        return _kill_slot(instr, (dest, dest + 1) if wide else (dest,))
    if opcode == "IMAD":
        wide = "WIDE" in instr.modifiers
        return _kill_slot(instr, (dest, dest + 1) if wide else (dest,))
    if opcode in ("LDG", "LDC"):
        wide = "64" in instr.modifiers
        return _kill_slot(instr, (dest, dest + 1) if wide else (dest,))
    # Unknown register writer: be conservative, the shadow dies.
    return _kill_slot(instr, (dest,))


def build_shadow_slot(instr) -> ShadowSlot | None:
    """Resolve one instruction's shadow behaviour (never raises)."""
    try:
        return _build(instr)
    except Exception:
        dest = instr.dest_reg()
        if dest is None or dest == RZ:
            return None
        return _kill_slot(instr, (dest,))


def shadow_slots(code) -> tuple:
    """Per-pc shadow slots for a kernel, memoised on the code object."""
    cached = getattr(code, "_shadow_slots", None)
    if cached is not None:
        return cached
    slots = tuple(build_shadow_slot(instr) for instr in code.instructions)
    code._shadow_slots = slots
    return slots


# ---------------------------------------------------------------------------
# shadow register storage
# ---------------------------------------------------------------------------


class _WarpShadow:
    """One warp's shadow plane: row views into the stacked arrays (or
    standalone arrays on the serial paths)."""

    __slots__ = ("vals", "ok", "f64")

    def __init__(self, vals, ok, f64):
        self.vals = vals  # (NUM_REGS, 32) float64
        self.ok = ok      # (NUM_REGS, 32) bool
        self.f64 = f64    # {low_reg: [Fraction | None] * 32}

    def read32(self, num):
        return self.vals[num], self.ok[num]

    def write32(self, num, values, mask):
        self.vals[num][mask] = np.broadcast_to(values, mask.shape)[mask]
        self.ok[num][mask] = True
        self._kill_f64(num, mask)

    def write32_raw(self, num, values, ok, mask):
        self.vals[num][mask] = values[mask]
        self.ok[num][mask] = ok[mask]
        self._kill_f64(num, mask)

    def kill(self, regs, mask):
        for num in regs:
            self.ok[num][mask] = False
            self._kill_f64(num, mask)

    def _kill_f64(self, num, mask):
        if not self.f64:
            return
        for low in list(self.f64):
            if low == num or low + 1 == num:
                entry = self.f64[low]
                for lane in np.nonzero(mask)[0]:
                    entry[lane] = None

    def read64(self, num):
        return self.f64.get(num)

    def write64(self, num, fracs, mask):
        entry = self.f64.setdefault(num, [None] * WARP_SIZE)
        for lane in np.nonzero(mask)[0]:
            entry[lane] = fracs[lane]
        # The 32-bit halves no longer hold meaningful FP32 shadows.
        self.ok[num][mask] = False
        if num + 1 < NUM_REGS:
            self.ok[num + 1][mask] = False


class _StackShadow:
    """A cohort's shadow plane: gather/scatter over the stacked arrays."""

    __slots__ = ("vals", "ok", "f64_rows", "rows")

    def __init__(self, vals, ok, f64_rows, rows):
        self.vals = vals          # (n_warps, NUM_REGS, 32) float64
        self.ok = ok              # (n_warps, NUM_REGS, 32) bool
        self.f64_rows = f64_rows  # per-warp dicts, indexed by abs row
        self.rows = rows          # (n,) intp — cohort rows

    def read32(self, num):
        return self.vals[self.rows, num], self.ok[self.rows, num]

    def write32(self, num, values, mask):
        cur = self.vals[self.rows, num]
        self.vals[self.rows, num] = np.where(mask, values, cur)
        self.ok[self.rows, num] = self.ok[self.rows, num] | mask
        self._kill_f64(num, mask)

    def write32_raw(self, num, values, ok, mask):
        cur = self.vals[self.rows, num]
        self.vals[self.rows, num] = np.where(mask, values, cur)
        cur_ok = self.ok[self.rows, num]
        self.ok[self.rows, num] = np.where(mask, ok, cur_ok)
        self._kill_f64(num, mask)

    def kill(self, regs, mask):
        for num in regs:
            self.ok[self.rows, num] = self.ok[self.rows, num] & ~mask
            self._kill_f64(num, mask)

    def _kill_f64(self, num, mask):
        for i, row in enumerate(self.rows):
            d = self.f64_rows[row]
            if not d:
                continue
            for low in list(d):
                if low == num or low + 1 == num:
                    entry = d[low]
                    for lane in np.nonzero(mask[i])[0]:
                        entry[lane] = None

    def row_view(self, i):
        row = self.rows[i]
        return _WarpShadow(self.vals[row], self.ok[row],
                           self.f64_rows[row])


# ---------------------------------------------------------------------------
# per-launch shadow state + execution hooks
# ---------------------------------------------------------------------------


_ORD_SIGN = np.int64(0x80000000)
_ORD_FLIP = np.int64(0xFFFFFFFF)

# Lazily bound FP64 oracle helpers (conformance imports the execution
# stack at module scope; importing it here at import time would cycle).
_ulp_distance64 = None
_f64_to_bits = None


def _ordered32(bits) -> np.ndarray:
    b = bits.astype(np.int64)
    return np.where(b & _ORD_SIGN, b ^ _ORD_FLIP, b | _ORD_SIGN)


def _ulp64_helpers():
    global _ulp_distance64, _f64_to_bits
    if _ulp_distance64 is None:
        from ..conformance.oracle import f64_to_bits, ulp_distance64
        _ulp_distance64 = ulp_distance64
        _f64_to_bits = f64_to_bits
    return _ulp_distance64, _f64_to_bits


def _frac_or_none(value: float) -> Fraction | None:
    if value != value or value in (np.inf, -np.inf):
        return None
    return Fraction(float(value))


class ShadowState:
    """One execution's (or one megabatch's) shadow plane.

    Created by the runtime per execution.  The plane records its
    comparison count and divergence observations instead of reporting
    them; :meth:`apply` hands them to a
    :class:`repro.fpx.shadow.ShadowTracker`, once for every invocation
    an observer's own run would have simulated.
    """

    def __init__(self, config: ShadowConfig, code) -> None:
        self.config = config
        self.threshold = int(config.ulp_threshold)
        self.kernel = code.name
        self.checks = 0
        #: ``(slot, count, max_ulp, member)`` divergences in execution
        #: order; ``member=None`` means the tracker's bound member.
        self.observations: list[tuple] = []
        self._stacked_vals = None
        self._stacked_ok = None
        self._f64_rows = None
        self._member_of = None
        #: Plain ``Warp`` objects default ``member`` to 0, so the
        #: attribute only means something in a multi-member stacked run;
        #: everywhere else observations carry ``member=None`` and land
        #: in whatever member the tracker is currently bound to.
        self._multi_member = False

    def apply(self, tracker) -> None:
        """Report this execution's divergences and checks to ``tracker``."""
        for slot, count, max_ulp, member in self.observations:
            tracker.observe(self.kernel, slot, count=count, max_ulp=max_ulp,
                            member=member)
        tracker.add_checks(self.checks)

    # -- storage wiring ----------------------------------------------------

    def attach(self, wset, warps) -> None:
        """Allocate the stacked shadow plane alongside a WarpSet."""
        n = wset.n_warps
        self._stacked_vals = np.zeros((n, NUM_REGS, WARP_SIZE),
                                      dtype=np.float64)
        self._stacked_ok = np.zeros((n, NUM_REGS, WARP_SIZE), dtype=bool)
        self._f64_rows = [dict() for _ in range(n)]
        self._member_of = wset.member_of if wset.members > 1 else None
        self._multi_member = wset.members > 1
        for i, wp in enumerate(warps):
            wp._shadow = _WarpShadow(self._stacked_vals[i],
                                     self._stacked_ok[i],
                                     self._f64_rows[i])

    def _warp_member(self, warp):
        """The member to attribute a per-warp observation to, or None
        to use the tracker's currently bound member."""
        if not self._multi_member:
            return None
        return getattr(warp, "member", None)

    def _warp_view(self, warp) -> _WarpShadow:
        view = getattr(warp, "_shadow", None)
        if view is None:
            view = _WarpShadow(
                np.zeros((NUM_REGS, WARP_SIZE), dtype=np.float64),
                np.zeros((NUM_REGS, WARP_SIZE), dtype=bool), {})
            warp._shadow = view
        return view

    # -- engine hooks ------------------------------------------------------

    def run_op(self, dop, st, mask):
        """Serial-path hook around one decoded op's execute."""
        slot = dop.shadow
        view = self._warp_view(st.warp)
        members = (self._warp_member(st.warp),)
        pending = self._pre(slot, view, st, mask)
        advanced = dop.execute(st, mask)
        self._post(slot, view, st, mask, pending, members)
        return advanced

    def run_fn(self, slot, st, mask, execute):
        """Legacy-path hook around one string-dispatched execute."""
        view = self._warp_view(st.warp)
        members = (self._warp_member(st.warp),)
        pending = self._pre(slot, view, st, mask)
        advanced = execute()
        self._post(slot, view, st, mask, pending, members)
        return advanced

    def run_cohort(self, dop, st, masks, rows):
        """Stacked-path hook around one cohort execute."""
        slot = dop.shadow
        view = _StackShadow(self._stacked_vals, self._stacked_ok,
                            self._f64_rows, rows)
        if self._member_of is None:
            members = tuple(None for _ in rows)
        else:
            members = tuple(int(self._member_of[r]) for r in rows)
        pending = self._pre(slot, view, st, masks)
        dop.execute(st, masks)
        self._post(slot, view, st, masks, pending, members)

    # -- source resolution (pre-execute: dest may alias a source) ----------

    def _resolve32(self, desc, view, st):
        kind = desc[0]
        if kind == "reg":
            _, num, neg, ab = desc
            sh, ok = view.read32(num)
            # Widening a signaling-NaN payload trips NumPy's
            # invalid-cast warning; the quieted value is what we want.
            with np.errstate(invalid="ignore"):
                prim = st.warp.read_f32(num).astype(np.float64)
            v = np.where(ok, sh, prim)
        elif kind == "const":
            return desc[1]
        else:  # cbank
            _, cid, off, neg, ab = desc
            bits = st.launch.cbanks.read_u32(cid, off)
            v = float(np.array([bits], dtype=np.uint32)
                      .view(np.float32)[0])
        if ab:
            v = np.abs(v) if kind == "reg" else abs(v)
        if neg:
            v = -v
        return v

    def _pre(self, slot, view, st, mask):
        kind = slot.kind
        if kind == "f32":
            args = [self._resolve32(d, view, st) for d in slot.srcs]
            with np.errstate(all="ignore"):
                result = slot.fn(*args)
            return np.broadcast_to(np.asarray(result, dtype=np.float64),
                                   mask.shape)
        if kind in ("sel32", "mnmx32"):
            a = self._resolve32(slot.srcs[0], view, st)
            b = self._resolve32(slot.srcs[1], view, st)
            pnum, pneg = slot.pred
            sel = st.warp.read_pred(pnum, pneg)
            with np.errstate(all="ignore"):
                if kind == "sel32":
                    result = np.where(sel, a, b)
                else:
                    result = np.where(sel, np.fmin(a, b), np.fmax(a, b))
            return np.broadcast_to(np.asarray(result, dtype=np.float64),
                                   mask.shape)
        if kind == "mov32":
            num = slot.srcs[0][1]
            vals, ok = view.read32(num)
            return np.array(vals, copy=True), np.array(ok, copy=True)
        if kind == "f64":
            return self._pre64(slot, view, st, mask)
        return None

    def _pre64(self, slot, view, st, mask):
        mask2 = np.atleast_2d(mask)
        n_rows, _ = mask2.shape
        resolved = []
        for desc in slot.srcs:
            kind = desc[0]
            if kind == "const":
                f = _frac_or_none(desc[1])
                resolved.append([[f] * WARP_SIZE] * n_rows)
                continue
            if kind == "cbank64":
                _, cid, off, neg, ab = desc
                bits = st.launch.cbanks.read_u64(cid, off)
                v = float(np.array([bits], dtype=np.uint64)
                          .view(np.float64)[0])
                f = _frac_or_none(v)
                if f is not None:
                    if ab:
                        f = abs(f)
                    if neg:
                        f = -f
                resolved.append([[f] * WARP_SIZE] * n_rows)
                continue
            _, num, neg, ab = desc
            prim = np.atleast_2d(st.warp.read_f64_pair(num))
            rows = []
            for r in range(n_rows):
                shadow = (view.row_view(r).read64(num)
                          if isinstance(view, _StackShadow)
                          else view.read64(num))
                lane_vals = []
                for lane in range(WARP_SIZE):
                    f = shadow[lane] if shadow is not None else None
                    if f is None:
                        f = _frac_or_none(prim[r, lane])
                    if f is not None:
                        if ab:
                            f = abs(f)
                        if neg:
                            f = -f
                    lane_vals.append(f)
                rows.append(lane_vals)
            resolved.append(rows)
        fn = slot.fn
        out = []
        for r in range(n_rows):
            lane_out = []
            for lane in range(WARP_SIZE):
                args = [src[r][lane] for src in resolved]
                lane_out.append(None if any(a is None for a in args)
                                else fn(*args))
            out.append(lane_out)
        return out

    # -- post-execute: write shadow dest + compare -------------------------

    def _post(self, slot, view, st, mask, pending, members):
        kind = slot.kind
        if kind == "kill":
            if slot.kills:
                view.kill(slot.kills, mask)
            return
        if kind == "mov32":
            vals, ok = pending
            view.write32_raw(slot.dest, vals, ok, mask)
            return
        if kind == "f64":
            self._post64(slot, view, st, mask, pending, members)
            return
        # f32 / sel32 / mnmx32
        view.write32(slot.dest, pending, mask)
        prim = np.asarray(st.warp.read_f32(slot.dest), dtype=np.float32)
        with np.errstate(all="ignore"):
            cmp = mask & np.isfinite(prim) & np.isfinite(pending)
        n = int(np.count_nonzero(cmp))
        if not n:
            return
        self.checks += n
        # NaN/overflow lanes are masked out of ``cmp`` but still pass
        # through the narrowing cast — keep them from warning.
        with np.errstate(all="ignore"):
            sh32 = pending.astype(np.float32)
        ulps = np.abs(_ordered32(prim.view(np.uint32))
                      - _ordered32(sh32.view(np.uint32)))
        exceed = cmp & (ulps > self.threshold)
        if not exceed.any():
            return
        exceed2 = np.atleast_2d(exceed)
        ulps2 = np.atleast_2d(ulps)
        for r in np.nonzero(exceed2.any(axis=1))[0]:
            row_hit = exceed2[r]
            self.observations.append((
                slot, int(np.count_nonzero(row_hit)),
                int(ulps2[r][row_hit].max()), members[r]))

    def _post64(self, slot, view, st, mask, fracs, members):
        mask2 = np.atleast_2d(mask)
        n_rows = mask2.shape[0]
        for r in range(n_rows):
            row_view = (view.row_view(r) if isinstance(view, _StackShadow)
                        else view)
            row_view.write64(slot.dest, fracs[r], mask2[r])
        ulp64, to_bits = _ulp64_helpers()
        prim = np.atleast_2d(st.warp.read_f64_pair(slot.dest))
        for r in range(n_rows):
            count = 0
            max_ulp = 0
            for lane in np.nonzero(mask2[r])[0]:
                f = fracs[r][lane]
                p = float(prim[r, lane])
                if f is None or p != p or p in (np.inf, -np.inf):
                    continue
                try:
                    sh = float(f)
                except OverflowError:
                    continue
                if sh != sh or sh in (float("inf"), float("-inf")):
                    continue
                self.checks += 1
                d = ulp64(to_bits(p), to_bits(sh))
                if d > self.threshold:
                    count += 1
                    max_ulp = max(max_ulp, d)
            if count:
                self.observations.append((slot, count, max_ulp, members[r]))
