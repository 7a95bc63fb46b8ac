"""The four specialized device-side check functions (Algorithm 1).

Algorithm 1 dispatches on the opcode:

- ``MUFU.RCP``         -> ``check_32_div0(Rdest)``
- ``MUFU.RCP64H``      -> ``check_64_div0(Rdest-1, Rdest)``
- FP32-prefixed ops    -> ``check_32_nan_inf_sub(Rdest)``
- FP64-prefixed ops    -> ``check_64_nan_inf_sub(Rdest, Rdest+1)``
  (or ``(Rdest-1, Rdest)`` when the opcode contains ``64H``)

Each function returns a per-lane array of :class:`ExceptionKind` codes
(0 = no exception).  The DIV0 checks flag a NaN or INF in the destination
of a reciprocal ("it is essential to verify if the opcode is
MUFU.RCP(64H) and the destination register holds a NaN or INF value").

On the device these functions are the FP16 check and the
``on_device_check=False`` ablation's.  The FP32 and FP64 checks (DIV0
included) and both BinFPE probes read the probe context instead:
``ctx.screen(regs)`` runs one fused bit test over an FP32 register
``(r,)`` or FP64 pair ``(lo, hi)``
(:func:`repro.sass.fpenc.exceptional_f32` /
:func:`~repro.sass.fpenc.exceptional_f64`), and only when some
executing lane is NaN, INF or subnormal does ``ctx.classify(regs)``
count the lanes per class, once.  Both answers are taken once per
dispatch phase and shared by every observer probing that register
tuple, so a clean destination costs a handful of array operations per
dispatch, not per probe; :func:`kind_counts` turns one warp's class
counts into the ``ExceptionKind -> lanes`` map the tools ship.
"""

from __future__ import annotations

import numpy as np

from ..gpu.warp import Warp
from ..sass.fpenc import (
    INF,
    NAN,
    SUB,
    classify_f16_bits,
    classify_f32_bits,
    classify_f64_bits,
)
from .records import ExceptionKind

__all__ = [
    "check_32_nan_inf_sub",
    "check_64_nan_inf_sub",
    "check_16_nan_inf_sub",
    "check_32_div0",
    "check_64_div0",
    "CLASS_TO_KIND",
    "kind_counts",
    "lane_kind_counts",
]

#: fpenc class codes (VAL/NAN/INF/SUB) map 1:1 onto ExceptionKind values.
CLASS_TO_KIND = np.array([int(ExceptionKind.NONE), int(ExceptionKind.NAN),
                          int(ExceptionKind.INF), int(ExceptionKind.SUB)],
                         dtype=np.uint8)

_NAN, _INF, _SUB, _DIV0 = (int(ExceptionKind.NAN), int(ExceptionKind.INF),
                           int(ExceptionKind.SUB), int(ExceptionKind.DIV0))


def kind_counts(class_counts: np.ndarray, div0: bool) -> dict[int, int]:
    """``ExceptionKind -> lanes`` of one warp, in ascending kind order,
    from its lane counts per fpenc class (``ctx.classify(regs)``, or one
    row of a cohort's).  ``div0`` reads the destination of a reciprocal:
    NaN or INF there is DIV0, and a subnormal is nothing."""
    _, nan, inf, sub = class_counts.tolist()
    if div0:
        return {_DIV0: nan + inf} if nan or inf else {}
    out = {}
    if nan:
        out[_NAN] = nan
    if inf:
        out[_INF] = inf
    if sub:
        out[_SUB] = sub
    return out


def lane_kind_counts(kinds: np.ndarray) -> dict[int, int]:
    """``ExceptionKind -> lanes`` of one warp's per-lane check result
    (0 for no exception), in ascending kind order."""
    counts = np.bincount(kinds, minlength=len(ExceptionKind)).tolist()
    return {k: c for k, c in enumerate(counts) if k and c}


def check_32_nan_inf_sub(warp: Warp, dest: int) -> np.ndarray:
    """Classify the FP32 destination register of every lane."""
    codes = classify_f32_bits(warp.read_u32(dest))
    return CLASS_TO_KIND[codes]


def check_64_nan_inf_sub(warp: Warp, low: int, high: int) -> np.ndarray:
    """Classify the FP64 value held in the (low, high) register pair."""
    bits = (warp.read_u32(low).astype(np.uint64)
            | (warp.read_u32(high).astype(np.uint64) << np.uint64(32)))
    codes = classify_f64_bits(bits)
    return CLASS_TO_KIND[codes]


def check_16_nan_inf_sub(warp: Warp, dest: int) -> np.ndarray:
    """FP16 extension: classify both packed halves; worst one wins.

    Severity order NaN > INF > SUB matches the detector's reporting
    priority for packed values.
    """
    u = warp.read_u32(dest)
    lo = CLASS_TO_KIND[classify_f16_bits((u & np.uint32(0xFFFF)).astype(np.uint16))]
    hi = CLASS_TO_KIND[classify_f16_bits((u >> np.uint32(16)).astype(np.uint16))]
    severity = np.array([0, 3, 2, 1, 0], dtype=np.uint8)  # NONE,NAN,INF,SUB
    return np.where(severity[lo] >= severity[hi], lo, hi)


def check_32_div0(warp: Warp, dest: int) -> np.ndarray:
    """DIV0 when an FP32 reciprocal produced NaN or INF."""
    codes = classify_f32_bits(warp.read_u32(dest))
    out = np.zeros(codes.shape, dtype=np.uint8)
    out[(codes == NAN) | (codes == INF)] = int(ExceptionKind.DIV0)
    return out


def check_64_div0(warp: Warp, low: int, high: int) -> np.ndarray:
    """DIV0 when an FP64 reciprocal (RCP64H) produced NaN or INF."""
    bits = (warp.read_u32(low).astype(np.uint64)
            | (warp.read_u32(high).astype(np.uint64) << np.uint64(32)))
    codes = classify_f64_bits(bits)
    out = np.zeros(codes.shape, dtype=np.uint8)
    out[(codes == NAN) | (codes == INF)] = int(ExceptionKind.DIV0)
    return out
