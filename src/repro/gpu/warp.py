"""Warp state: the SIMT register file, predicates, and divergence stack.

A warp is 32 lanes executing in lockstep.  Registers are 32-bit
(``regs[num]`` is the 32-lane vector for ``Rnum``); FP64 quantities occupy
two adjacent registers with the low word in the lower-numbered register
(§2.2 of the paper).  Divergence uses the classic SSY/SYNC token stack of
pre-Volta SASS: the compiler emits ``SSY reconv`` before a potentially
divergent branch and ``SYNC`` at the end of each path.

For the warp-cohort batched engine the register files of all warps in a
launch live in one stacked allocation (:class:`WarpSet`): each
:class:`Warp` owns a basic-slice view of its ``(NUM_REGS, 32)`` plane, so
per-warp code is oblivious to the stacking, while :class:`CohortView`
exposes the same read/write API over the ``(n_warps, 32)`` planes of any
subset of warps that share a pc — one gather/scatter per operand instead
of one per warp.

**The converged fast path.**  Almost every dispatch executes every lane
of its warp.  The engines then pass one shared, read-only all-lanes
mask — :data:`FULL_MASK` for a warp, :meth:`WarpSet.full_mask` for an
``n``-warp cohort — and the write methods store whole rows when they
see it (an identity test), skipping the masked gather/scatter.  Any
other mask takes the general path, so code that never special-cases the
shared mask stays correct: it is an ordinary boolean mask of all-True.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..sass.operands import NUM_PREDS, NUM_REGS, PT, RZ

__all__ = ["WARP_SIZE", "FULL_MASK", "FrameKind", "StackFrame", "Warp",
           "WarpSet", "CohortView"]

WARP_SIZE = 32

#: The shared all-lanes execution mask of one warp (read-only).
FULL_MASK = np.ones(WARP_SIZE, dtype=bool)
FULL_MASK.flags.writeable = False

#: Fault-injection flags for conformance testing (test-only; see
#: :mod:`repro.conformance.mutation`).  The semantics shared by the
#: engines consult this set to deliberately mis-execute — e.g.
#: ``"cohort-drop-full-row-write"`` makes :class:`CohortView` skip its
#: whole-row register stores, a bug only the stacked engines run — so
#: the conformance engine can prove it catches the bug.  Empty in
#: production, and consulted at most once per op (here: once per
#: stacked launch, by :class:`WarpSet`).
_MUTATIONS: set[str] = set()


class FrameKind(str, enum.Enum):
    """The two divergence-stack token types.

    ``SSY`` is a reconvergence frame pushed by SSY, holding the mask to
    restore and the reconvergence pc; ``DIV`` is a pending not-yet-executed
    branch path with its entry pc and lane mask.
    """

    SSY = "SSY"
    DIV = "DIV"


@dataclass
class StackFrame:
    """A divergence-stack token (see :class:`FrameKind`)."""

    kind: FrameKind
    pc: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        # Accepts the legacy bare strings ("SSY"/"DIV") but always stores
        # the enum; anything else is rejected at construction.
        self.kind = FrameKind(self.kind)


class WarpSet:
    """Stacked register/predicate storage for every warp of a launch.

    ``regs[i]`` / ``preds[i]`` are the planes handed to warp ``i`` as
    basic-slice views; a cohort of warps indexes the same arrays along
    axis 0 so one NumPy gather/scatter serves the whole cohort.

    The megabatch engine stacks *several member launches* into one set:
    ``members > 1`` lays the planes out member-major (all of member 0's
    warps, then member 1's, ...) and ``member_of[i]`` names the member
    launch owning warp ``i`` — the cohort scheduler is oblivious, only
    per-member accounting and memory routing consult it.
    """

    __slots__ = ("n_warps", "regs", "preds", "members", "member_of",
                 "row_stores", "_full")

    def __init__(self, n_warps: int, *, members: int = 1) -> None:
        self.n_warps = n_warps
        self.regs = np.zeros((n_warps, NUM_REGS, WARP_SIZE), dtype=np.uint32)
        self.preds = np.zeros((n_warps, NUM_PREDS, WARP_SIZE), dtype=bool)
        #: Number of stacked member launches (1 = an ordinary launch).
        self.members = members
        if n_warps % members:
            raise ValueError(f"{n_warps} warps do not divide into "
                             f"{members} equal member launches")
        per = n_warps // members
        #: ``member_of[i]`` is the member-launch index of warp ``i``.
        self.member_of = np.repeat(np.arange(members, dtype=np.intp), per)
        #: Whether cohort writes under the shared all-lanes mask store
        #: their rows (False only under the
        #: ``cohort-drop-full-row-write`` mutation).
        self.row_stores = "cohort-drop-full-row-write" not in _MUTATIONS
        self._full: dict[int, np.ndarray] = {}

    def full_mask(self, n: int) -> np.ndarray:
        """The shared read-only all-lanes mask of an ``n``-warp cohort
        (one per cohort size, owned by this launch's set)."""
        mask = self._full.get(n)
        if mask is None:
            mask = np.ones((n, WARP_SIZE), dtype=bool)
            mask.flags.writeable = False
            self._full[n] = mask
        return mask

    def plane(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The (regs, preds) views backing warp ``i``."""
        return self.regs[i], self.preds[i]


class Warp:
    """Execution state for one warp.

    When ``regs``/``preds`` are given (views into a :class:`WarpSet`)
    the warp aliases that stacked storage instead of allocating its own.

    Invariant: ``active`` is only ever *rebound* (divergence, EXIT and
    reconvergence assign a fresh array), never mutated in place after
    construction.  The engines cache a lane count per ``active`` object
    and test it by identity, so an in-place update would go unseen.
    """

    def __init__(self, warp_id: int, block_id: int, first_thread: int,
                 active_lanes: int = WARP_SIZE, *,
                 regs: np.ndarray | None = None,
                 preds: np.ndarray | None = None) -> None:
        self.warp_id = warp_id
        self.block_id = block_id
        #: Global thread id of lane 0 (tid.x = first_thread + lane).
        self.first_thread = first_thread
        self.regs = np.zeros((NUM_REGS, WARP_SIZE), dtype=np.uint32) \
            if regs is None else regs
        self.preds = np.zeros((NUM_PREDS, WARP_SIZE), dtype=bool) \
            if preds is None else preds
        self.preds[PT] = True
        self.active = np.zeros(WARP_SIZE, dtype=bool)
        self.active[:active_lanes] = True
        #: Lanes that have executed EXIT.
        self.exited = ~self.active.copy()
        self.pc = 0
        self.stack: list[StackFrame] = []
        #: Set when the warp is parked at a BAR.SYNC.
        self.at_barrier = False
        self.done = False
        #: The block's shared memory (bound by the cohort engine so the
        #: per-warp fallback path can address the right block).
        self.shared = None
        #: Member-launch index when stacked by the megabatch engine
        #: (0 for ordinary launches).
        self.member = 0

    # -- register access ----------------------------------------------------

    def read_u32(self, num: int) -> np.ndarray:
        """Read a register as 32 lanes of uint32 (RZ reads zero)."""
        if num == RZ:
            return np.zeros(WARP_SIZE, dtype=np.uint32)
        return self.regs[num]

    def write_u32(self, num: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        """Write lanes of a register under ``mask`` (RZ writes discard)."""
        if num == RZ:
            return
        if mask is FULL_MASK:
            self.regs[num] = values
            return
        self.regs[num][mask] = values[mask].astype(np.uint32, copy=False)

    def read_f32(self, num: int) -> np.ndarray:
        return self.read_u32(num).view(np.float32)

    def write_f32(self, num: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        self.write_u32(num, np.asarray(values, dtype=np.float32).view(np.uint32),
                       mask)

    def read_u64_pair(self, low_num: int) -> np.ndarray:
        """Read an FP64 register pair as lanes of uint64 bits."""
        low = self.read_u32(low_num).astype(np.uint64)
        high = self.read_u32(low_num + 1 if low_num + 1 < NUM_REGS else RZ)
        return low | (high.astype(np.uint64) << np.uint64(32))

    def read_f64_pair(self, low_num: int) -> np.ndarray:
        return self.read_u64_pair(low_num).view(np.float64)

    def write_f64_pair(self, low_num: int, values: np.ndarray,
                       mask: np.ndarray) -> None:
        bits = np.asarray(values, dtype=np.float64).view(np.uint64)
        self.write_u32(low_num, (bits & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                       mask)
        if low_num + 1 < NUM_REGS:
            self.write_u32(low_num + 1,
                           (bits >> np.uint64(32)).astype(np.uint32), mask)

    def read_pred(self, num: int, negated: bool = False) -> np.ndarray:
        p = self.preds[num]
        return ~p if negated else p.copy()

    def write_pred(self, num: int, values: np.ndarray,
                   mask: np.ndarray) -> None:
        if num == PT:
            return
        if mask is FULL_MASK:
            self.preds[num] = values
            return
        self.preds[num][mask] = values[mask]

    # -- divergence ----------------------------------------------------------

    def push_ssy(self, reconv_pc: int) -> None:
        self.stack.append(StackFrame(FrameKind.SSY, reconv_pc,
                                     self.active.copy()))

    def push_div(self, entry_pc: int, mask: np.ndarray) -> None:
        self.stack.append(StackFrame(FrameKind.DIV, entry_pc, mask.copy()))

    def pop_to_pending(self) -> bool:
        """Handle SYNC / divergent EXIT: switch to a pending path or
        reconverge.  Returns False when the warp has fully finished."""
        while self.stack:
            frame = self.stack.pop()
            mask = frame.mask & ~self.exited
            if frame.kind is FrameKind.DIV:
                if mask.any():
                    self.active = mask
                    self.pc = frame.pc
                    return True
                continue  # the whole pending path already exited
            # SSY frame: reconverge at its target with the restored mask.
            if mask.any():
                self.active = mask
                self.pc = frame.pc
                return True
            # all lanes of the region exited; keep unwinding
        self.done = True
        return False


class CohortView:
    """The :class:`Warp` register API over a stacked warp cohort.

    Reads return ``(n, 32)`` arrays (one row per cohort warp, in
    ascending warp order); writes accept ``(n, 32)`` or broadcastable
    values under an ``(n, 32)`` mask.  A contiguous cohort (the common
    case: all warps at the same pc) resolves to basic-slice views with
    in-place masked writes; a sparse cohort falls back to a
    gather-modify-scatter round trip.  A write under ``full_mask`` (the
    set's shared all-lanes mask for this cohort size) stores whole rows
    instead.  RZ/PT semantics match the per-warp API: RZ reads zero and
    discards writes, PT writes discard.
    """

    __slots__ = ("wset", "idx", "n", "sel", "full_mask", "_regs", "_preds",
                 "_dense", "_row_stores")

    def __init__(self, wset: WarpSet, idx: np.ndarray) -> None:
        self.wset = wset
        self.idx = idx
        self.n = len(idx)
        self.full_mask = wset.full_mask(self.n)
        self._regs = wset.regs
        self._preds = wset.preds
        self._row_stores = wset.row_stores
        lo, hi = int(idx[0]), int(idx[-1])
        self._dense = hi - lo + 1 == self.n
        #: Axis-0 selector of this cohort's planes: a basic slice when
        #: the cohort is contiguous, else the index array itself.
        self.sel = slice(lo, hi + 1) if self._dense else idx

    # -- register access ----------------------------------------------------

    def read_u32(self, num: int) -> np.ndarray:
        if num == RZ:
            return np.zeros((self.n, WARP_SIZE), dtype=np.uint32)
        return self._regs[self.sel, num]

    def write_u32(self, num: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        if num == RZ:
            return
        if mask is self.full_mask:
            if self._row_stores:
                self._regs[self.sel, num] = values
            return
        vals = np.broadcast_to(values, mask.shape)[mask].astype(
            np.uint32, copy=False)
        if self._dense:
            self._regs[self.sel, num][mask] = vals
        else:
            cur = self._regs[self.sel, num]
            cur[mask] = vals
            self._regs[self.sel, num] = cur

    def read_f32(self, num: int) -> np.ndarray:
        return self.read_u32(num).view(np.float32)

    def write_f32(self, num: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        self.write_u32(num, np.asarray(values, dtype=np.float32).view(np.uint32),
                       mask)

    def read_u64_pair(self, low_num: int) -> np.ndarray:
        low = self.read_u32(low_num).astype(np.uint64)
        high = self.read_u32(low_num + 1 if low_num + 1 < NUM_REGS else RZ)
        return low | (high.astype(np.uint64) << np.uint64(32))

    def read_f64_pair(self, low_num: int) -> np.ndarray:
        return self.read_u64_pair(low_num).view(np.float64)

    def write_f64_pair(self, low_num: int, values: np.ndarray,
                       mask: np.ndarray) -> None:
        bits = np.asarray(values, dtype=np.float64).view(np.uint64)
        self.write_u32(low_num, (bits & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                       mask)
        if low_num + 1 < NUM_REGS:
            self.write_u32(low_num + 1,
                           (bits >> np.uint64(32)).astype(np.uint32), mask)

    def read_pred(self, num: int, negated: bool = False) -> np.ndarray:
        p = self._preds[self.sel, num]
        if negated:
            return ~p
        return p.copy() if self._dense else p

    def write_pred(self, num: int, values: np.ndarray,
                   mask: np.ndarray) -> None:
        if num == PT:
            return
        if mask is self.full_mask:
            self._preds[self.sel, num] = values
            return
        vals = np.broadcast_to(values, mask.shape)[mask]
        if self._dense:
            self._preds[self.sel, num][mask] = vals
        else:
            cur = self._preds[self.sel, num]
            cur[mask] = vals
            self._preds[self.sel, num] = cur
