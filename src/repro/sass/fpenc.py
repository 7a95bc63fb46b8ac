"""Bit-level IEEE-754 encodings for the SASS register file.

SASS registers are natively 32-bit (§2.2 of the paper).  FP32 values live in
one register; FP64 values live in two *adjacent* registers with the low word
in ``Rd`` and the high word in ``Rd+1``.  The detector and analyzer classify
*register bit patterns*, never Python floats, because that is what the real
GPU-FPX sees at the SASS level — so everything here works on ``uint32``
arrays and is NumPy-vectorised across the 32 lanes of a warp.

Classification codes (shared across the whole project)::

    VAL = 0   ordinary (normal, zero, or any non-exceptional) value
    NAN = 1   quiet or signalling NaN
    INF = 2   +/- infinity
    SUB = 3   subnormal (denormal) — exponent 0, mantissa != 0

These match §2.1: exponent all-ones with zero mantissa is INF, with nonzero
mantissa is NaN, exponent zero with nonzero mantissa is subnormal.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "VAL",
    "NAN",
    "INF",
    "SUB",
    "CLASS_NAMES",
    "f32_to_bits",
    "bits_to_f32",
    "f64_to_bits",
    "bits_to_f64",
    "f16_to_bits",
    "bits_to_f16",
    "split_f64_bits",
    "join_f64_bits",
    "classify_f32_bits",
    "exceptional_f32",
    "exceptional_f64",
    "classify_f64_bits",
    "classify_f16_bits",
    "classify_f32_value",
    "classify_f64_value",
    "is_exceptional_code",
    "class_name",
]

VAL = 0
NAN = 1
INF = 2
SUB = 3

CLASS_NAMES = {VAL: "VAL", NAN: "NaN", INF: "INF", SUB: "SUB"}

_F32_EXP_MASK = np.uint32(0x7F800000)
_F32_MAN_MASK = np.uint32(0x007FFFFF)
_F64_EXP_MASK = np.uint64(0x7FF0000000000000)
_F64_MAN_MASK = np.uint64(0x000FFFFFFFFFFFFF)
_F16_EXP_MASK = np.uint16(0x7C00)
_F16_MAN_MASK = np.uint16(0x03FF)
_SCREEN_BIAS = np.uint32(0x01000000)
_SCREEN_TOP = np.uint32(0x02000000)
_SCREEN64_BIAS = np.uint32(0x00200000)
_SCREEN64_TOP = np.uint32(0x00400000)
_ZERO32 = np.uint32(0)


def f32_to_bits(value: float) -> int:
    """Encode a Python float into FP32 register bits (round-to-nearest)."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_f32(bits: int) -> float:
    """Decode FP32 register bits to a Python float."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def f64_to_bits(value: float) -> int:
    """Encode a Python float into FP64 bits."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f64(bits: int) -> float:
    """Decode FP64 bits to a Python float."""
    return struct.unpack("<d", struct.pack("<Q", bits & 0xFFFFFFFFFFFFFFFF))[0]


def f16_to_bits(value: float) -> int:
    """Encode a Python float into FP16 bits (for the FP16 extension)."""
    return int(np.float16(value).view(np.uint16))


def bits_to_f16(bits: int) -> float:
    """Decode FP16 bits to a Python float."""
    return float(np.uint16(bits & 0xFFFF).view(np.float16))


def split_f64_bits(bits: int) -> tuple[int, int]:
    """Split FP64 bits into ``(low_word, high_word)`` register halves.

    ``Rd`` holds the low 32 bits and ``Rd+1`` the high 32 bits (§2.2).
    """
    bits &= 0xFFFFFFFFFFFFFFFF
    return bits & 0xFFFFFFFF, bits >> 32


def join_f64_bits(low: int, high: int) -> int:
    """Join two 32-bit register halves into FP64 bits."""
    return ((high & 0xFFFFFFFF) << 32) | (low & 0xFFFFFFFF)


def classify_f32_bits(bits: np.ndarray | int) -> np.ndarray | int:
    """Classify FP32 register bit patterns into VAL/NAN/INF/SUB codes.

    Accepts a scalar or a ``uint32`` array; vectorised over warp lanes.
    """
    scalar = np.isscalar(bits)
    u = np.asarray(bits, dtype=np.uint32)
    exp = u & _F32_EXP_MASK
    man = u & _F32_MAN_MASK
    out = np.zeros(u.shape, dtype=np.uint8)
    all_ones = exp == _F32_EXP_MASK
    out[all_ones & (man != 0)] = NAN
    out[all_ones & (man == 0)] = INF
    out[(exp == 0) & (man != 0)] = SUB
    return int(out[()]) if scalar else out


def exceptional_f32(bits: np.ndarray) -> np.ndarray:
    """Per-lane NaN/INF/subnormal flags of FP32 register bits: the
    lanes :func:`classify_f32_bits` does not call VAL, in one fused
    bit test (the FP32 probes' screen).

    ``z = (u << 1) + 0x01000000`` in wrapping ``uint32`` drops the sign
    and adds one to the exponent field, so the two exceptional
    exponents, 0xFF (NaN/INF) and 0x00 (subnormal), become the two
    lowest: ``z < 0x02000000``.  ``z != 0x01000000`` leaves out ±0.
    """
    z = bits << np.uint32(1)
    z += _SCREEN_BIAS
    return (z < _SCREEN_TOP) & (z != _SCREEN_BIAS)


def exceptional_f64(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-lane NaN/INF/subnormal flags of FP64 values held as register
    words ``lo`` (``Rd``) and ``hi`` (``Rd+1``): the lanes
    :func:`classify_f64_bits` does not call VAL, without joining the
    words (the FP64 probes' screen).

    The high word carries the sign, the 11-bit exponent and the top 20
    mantissa bits.  ``z = (hi << 1) + 0x00200000`` in wrapping
    ``uint32`` drops the sign and adds one to the exponent field, so
    exponents 0x7FF (NaN/INF) and 0x000 (zero or subnormal) become the
    two lowest: ``z < 0x00400000``.  Of those, only ``z == 0x00200000``
    with a zero low word is ±0.
    """
    z = hi << np.uint32(1)
    z += _SCREEN64_BIAS
    return (z < _SCREEN64_TOP) & ((z != _SCREEN64_BIAS) | (lo != _ZERO32))


def classify_f64_bits(bits: np.ndarray | int) -> np.ndarray | int:
    """Classify FP64 bit patterns (as 64-bit integers) into class codes."""
    scalar = np.isscalar(bits)
    u = np.asarray(bits, dtype=np.uint64)
    exp = u & _F64_EXP_MASK
    man = u & _F64_MAN_MASK
    out = np.zeros(u.shape, dtype=np.uint8)
    all_ones = exp == _F64_EXP_MASK
    out[all_ones & (man != 0)] = NAN
    out[all_ones & (man == 0)] = INF
    out[(exp == np.uint64(0)) & (man != np.uint64(0))] = SUB
    return int(out[()]) if scalar else out


def classify_f16_bits(bits: np.ndarray | int) -> np.ndarray | int:
    """Classify FP16 bit patterns into class codes (FP16 extension)."""
    scalar = np.isscalar(bits)
    u = np.asarray(bits, dtype=np.uint16)
    exp = u & _F16_EXP_MASK
    man = u & _F16_MAN_MASK
    out = np.zeros(u.shape, dtype=np.uint8)
    all_ones = exp == _F16_EXP_MASK
    out[all_ones & (man != 0)] = NAN
    out[all_ones & (man == 0)] = INF
    out[(exp == 0) & (man != 0)] = SUB
    return int(out[()]) if scalar else out


def classify_f32_value(value: float) -> int:
    """Classify a Python float *as if stored* in an FP32 register."""
    return int(classify_f32_bits(f32_to_bits(value)))


def classify_f64_value(value: float) -> int:
    """Classify a Python float as an FP64 quantity."""
    return int(classify_f64_bits(f64_to_bits(value)))


def is_exceptional_code(code: int) -> bool:
    """True when a class code denotes an exceptional value (NaN/INF/SUB)."""
    return code in (NAN, INF, SUB)


def class_name(code: int) -> str:
    """Human-readable name used in analyzer reports (Listings 3-7 style)."""
    return CLASS_NAMES.get(int(code), f"?{code}")
