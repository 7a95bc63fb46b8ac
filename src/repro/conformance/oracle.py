"""Per-instruction IEEE-754 oracle — pure Python, independent of NumPy.

The differential engine (:mod:`repro.conformance.engine`) checks the
three in-process execution paths against each other *bit for bit*; they
all run the same decoded closures (:mod:`repro.gpu.decode`), so a bug in
those closures moves every path alike.  This module supplies the
independent opinion, checked value by value against the reference
``decoded`` path: a scalar re-execution of every generated program on
top of nothing but :mod:`struct`, :mod:`math` and :mod:`fractions`.  If
a NumPy upgrade (or a bug in the decoded vectorised closures) changes a
rounding, a special-case, or an FTZ flush, the oracle disagrees and the
fuzzer shrinks a reproducer.

Strictness tiers, chosen per operation (see ``docs/CONFORMANCE.md``):

* **bit-exact** — FADD/FMUL (binary64 compute + one binary32 rounding
  is exact for p=24 by Figueroa's 2p+2 theorem), DADD/DMUL (Python
  floats *are* binary64), FFMA/DFMA (exact ports of the decoder's
  ``_ffma32``/``_fma64``), MUFU.RCP/RSQ/SQRT (correctly-rounded via
  exact rationals), MUFU.RCP64H (binary64 division);
* **tolerance** — MUFU.EX2/LG2/SIN/COS go through the platform libm in
  both implementations; :data:`APPROX_FUNCS` marks them so the engine
  compares class-exactly plus a small ULP budget;
* **NaN class only** — NaN payloads survive differently through a
  binary32→binary64 round trip than through NumPy's all-binary32
  pipeline, so any-NaN equals any-NaN when comparing against the
  oracle (paths compare against *each other* fully bit-identically).
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

__all__ = [
    "APPROX_FUNCS",
    "classify32",
    "classify64",
    "f32_from_bits",
    "f32_to_bits",
    "f64_from_bits",
    "f64_to_bits",
    "ftz32_bits",
    "is_nan32_bits",
    "is_nan64_bits",
    "round32",
    "ulp_distance32",
    "ulp_distance64",
    "OracleRegs",
    "eval_op",
]

#: MUFU functions evaluated through libm on both sides — compared with a
#: class match plus :data:`ULP_TOLERANCE` instead of bit equality.
APPROX_FUNCS = frozenset({"EX2", "LG2", "SIN", "COS"})

#: Allowed binary32 ULP distance for :data:`APPROX_FUNCS` results.
ULP_TOLERANCE = 2


# -- bit conversions ---------------------------------------------------------


def f32_from_bits(bits: int) -> float:
    """The binary32 value stored in ``bits``, widened to a Python float."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def f32_to_bits(x: float) -> int:
    """Bits of ``x`` as a binary32 (``x`` must already be f32-exact)."""
    return struct.unpack("<I", struct.pack("<f", x))[0]


def f64_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & (1 << 64) - 1))[0]


def f64_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def round32(x: float) -> float:
    """Round a binary64 value to the nearest binary32 (round-half-even).

    ``struct.pack`` performs the C ``double``→``float`` conversion,
    which rounds to nearest-even — the same conversion NumPy's
    ``astype(float32)`` uses — but raises :class:`OverflowError` when a
    *finite* double lands beyond the binary32 range, where IEEE-754
    conversion overflows to infinity.
    """
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def ftz32_bits(bits: int) -> int:
    """Flush a subnormal binary32 to sign-preserving zero (bit level)."""
    if (bits & 0x7F800000) == 0 and (bits & 0x007FFFFF) != 0:
        return bits & 0x80000000
    return bits


# -- classification (mirrors repro.sass.fpenc, independently) ----------------


def is_nan32_bits(bits: int) -> bool:
    return (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0


def is_nan64_bits(bits: int) -> bool:
    return ((bits & 0x7FF0000000000000) == 0x7FF0000000000000
            and (bits & 0x000FFFFFFFFFFFFF) != 0)


def classify32(bits: int) -> str:
    """``"NAN" | "INF" | "SUB" | "VAL"`` for a binary32 bit pattern."""
    exp = bits & 0x7F800000
    mant = bits & 0x007FFFFF
    if exp == 0x7F800000:
        return "NAN" if mant else "INF"
    if exp == 0 and mant:
        return "SUB"
    return "VAL"


def classify64(bits: int) -> str:
    exp = bits & 0x7FF0000000000000
    mant = bits & 0x000FFFFFFFFFFFFF
    if exp == 0x7FF0000000000000:
        return "NAN" if mant else "INF"
    if exp == 0 and mant:
        return "SUB"
    return "VAL"


def _ordered32(bits: int) -> int:
    """Map binary32 bits to a monotonically ordered integer line."""
    return bits ^ 0xFFFFFFFF if bits & 0x80000000 else bits | 0x80000000


def ulp_distance32(bits_a: int, bits_b: int) -> int:
    """ULP distance between two non-NaN binary32 patterns (±0 adjacent)."""
    return abs(_ordered32(bits_a) - _ordered32(bits_b))


def _ordered64(bits: int) -> int:
    """Map binary64 bits to a monotonically ordered integer line."""
    if bits & 0x8000000000000000:
        return bits ^ 0xFFFFFFFFFFFFFFFF
    return bits | 0x8000000000000000


def ulp_distance64(bits_a: int, bits_b: int) -> int:
    """ULP distance between two non-NaN binary64 patterns (±0 adjacent).

    Same contract as :func:`ulp_distance32`: adjacent representable
    values are 1 apart, +0.0 and -0.0 are adjacent, and the distance is
    symmetric across the zero crossing.
    """
    return abs(_ordered64(bits_a) - _ordered64(bits_b))


# -- correctly-rounded division via exact rationals --------------------------


def _frac_to_f32(negative: bool, fr: Fraction) -> float:
    """Round a positive exact rational to binary32, nearest-even.

    Used for the reciprocal family: rounding an exact quotient directly
    to binary32 sidesteps the double-rounding hazard of going through
    binary64 first (real for quotients in the binary32 subnormal range).
    """
    if fr <= 0:
        return -0.0 if negative else 0.0
    # Exponent e with 2^e <= fr < 2^(e+1).
    e = fr.numerator.bit_length() - fr.denominator.bit_length()
    if Fraction(2) ** e > fr:
        e -= 1
    elif Fraction(2) ** (e + 1) <= fr:
        e += 1
    # Quantum: subnormal spacing below the normal range.
    q = -149 if e < -126 else e - 23
    scaled = fr / Fraction(2) ** q
    m, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem > scaled.denominator or (2 * rem == scaled.denominator
                                        and m & 1):
        m += 1
    if m == 0:
        return -0.0 if negative else 0.0
    value = math.ldexp(m, q)  # exact: m < 2^25 and q >= -149
    if value >= 2.0 ** 128:
        value = math.inf
    return -value if negative else value


def _div32(num: float, den: float) -> float:
    """Correctly-rounded binary32 quotient of two finite nonzero f32s."""
    negative = (math.copysign(1.0, num) * math.copysign(1.0, den)) < 0
    return _frac_to_f32(negative, Fraction(abs(num)) / Fraction(abs(den)))


# -- FP32 arithmetic ---------------------------------------------------------


def fadd32(a: float, b: float) -> float:
    return round32(a + b)


def fmul32(a: float, b: float) -> float:
    return round32(a * b)


def ffma32(a: float, b: float, c: float) -> float:
    """Mirror of the decoder's ``_ffma32``: the binary64 product of two
    binary32 values is exact, the sum takes one binary64 rounding, the
    conversion one binary32 rounding — a deliberate double rounding
    shared with the engine (documented as differing from hardware FMA).
    """
    return round32(a * b + c)


# -- FP64 arithmetic ---------------------------------------------------------


def dadd64(a: float, b: float) -> float:
    return a + b


def dmul64(a: float, b: float) -> float:
    return a * b


_SPLITTER = 134217729.0  # 2**27 + 1 (Dekker)


def dfma64(a: float, b: float, c: float) -> float:
    """Scalar port of the decoder's compensated ``_fma64``."""
    p = a * b
    plain = p + c
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
            and math.isfinite(p)):
        return plain
    if not (abs(a) < 1e150 and abs(b) < 1e150):
        return plain
    aa = a * _SPLITTER
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = b * _SPLITTER
    bhi = bb - (bb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    s = p + c
    v = s - p
    f = (p - (s - v)) + (c - v)
    return s + (e + f)


# -- MUFU (SFU) --------------------------------------------------------------


def mufu_rcp(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    if math.isinf(x):
        return math.copysign(0.0, x)
    return _div32(1.0, x)


def mufu_rsq(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        # sqrt(±0) = ±0, so 1/sqrt(-0) = -inf (matching the engine).
        return math.copysign(math.inf, x)
    if x < 0.0:
        return math.nan
    if math.isinf(x):
        return 0.0
    # Stepwise mirror: a correctly-rounded binary32 sqrt (binary64 sqrt
    # + binary32 rounding is exact — Figueroa covers sqrt), then a
    # correctly-rounded binary32 reciprocal of it.
    return _div32(1.0, round32(math.sqrt(x)))


def mufu_sqrt(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        return x  # preserves -0.0
    if x < 0.0:
        return math.nan
    if math.isinf(x):
        return math.inf
    return round32(math.sqrt(x))


def _exp2(x: float) -> float:
    try:
        return math.exp2(x) if hasattr(math, "exp2") else 2.0 ** x
    except OverflowError:
        return math.inf


def mufu_ex2(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return math.inf if x > 0 else 0.0
    return round32(_exp2(x))


def mufu_lg2(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        return -math.inf
    if x < 0.0:
        return math.nan
    if math.isinf(x):
        return math.inf
    return round32(math.log2(x))


def mufu_sin(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return math.nan
    return round32(math.sin(x))


def mufu_cos(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return math.nan
    return round32(math.cos(x))


_MUFU = {"RCP": mufu_rcp, "RSQ": mufu_rsq, "SQRT": mufu_sqrt,
         "EX2": mufu_ex2, "LG2": mufu_lg2, "SIN": mufu_sin,
         "COS": mufu_cos}


def mufu_rcp64h(high: int) -> int:
    """High word of ``1/x`` where ``x``'s high word is ``high``, low 0.

    Binary64 division is native in both Python and NumPy, so this is
    bit-exact — except for NaN inputs, where hardware quiets-and-
    propagates the payload; the caller compares NaN results by class.
    """
    x = f64_from_bits((high & 0xFFFFFFFF) << 32)
    if math.isnan(x):
        # Quiet the input NaN (what the hardware division propagates).
        return (high | 0x00080000) & 0xFFFFFFFF
    if x == 0.0:
        r = math.copysign(math.inf, x)
    elif math.isinf(x):
        r = math.copysign(0.0, x)
    else:
        r = 1.0 / x
    return (f64_to_bits(r) >> 32) & 0xFFFFFFFF


# -- register-file evaluation ------------------------------------------------


class OracleRegs:
    """One thread's register file: u32 words, unwritten registers read 0
    (the executor zero-initialises its register arrays the same way)."""

    def __init__(self) -> None:
        self._regs: dict[int, int] = {}

    def read_u32(self, reg: int) -> int:
        return self._regs.get(reg, 0)

    def write_u32(self, reg: int, bits: int) -> None:
        self._regs[reg] = bits & 0xFFFFFFFF

    def read_f32(self, reg: int) -> float:
        return f32_from_bits(self.read_u32(reg))

    def write_f32(self, reg: int, x: float) -> None:
        self.write_u32(reg, f32_to_bits(x))

    def read_f64_bits(self, low_reg: int) -> int:
        return self.read_u32(low_reg) | self.read_u32(low_reg + 1) << 32

    def write_f64(self, low_reg: int, x: float) -> None:
        bits = f64_to_bits(x)
        self.write_u32(low_reg, bits & 0xFFFFFFFF)
        self.write_u32(low_reg + 1, bits >> 32)


def eval_op(regs: OracleRegs, opcode: str, mods: tuple[str, ...],
            dest: int, srcs: tuple[int, ...]) -> None:
    """Execute one generated body instruction against ``regs``."""
    ftz = "FTZ" in mods

    def src32(reg: int) -> float:
        bits = regs.read_u32(reg)
        if ftz:
            bits = ftz32_bits(bits)
        return f32_from_bits(bits)

    def put32(x: float) -> None:
        bits = f32_to_bits(x)
        if ftz:
            bits = ftz32_bits(bits)
        regs.write_u32(dest, bits)

    if opcode == "FADD":
        put32(fadd32(src32(srcs[0]), src32(srcs[1])))
    elif opcode == "FMUL":
        put32(fmul32(src32(srcs[0]), src32(srcs[1])))
    elif opcode == "FFMA":
        put32(ffma32(src32(srcs[0]), src32(srcs[1]), src32(srcs[2])))
    elif opcode == "DADD":
        regs.write_f64(dest, dadd64(f64_from_bits(regs.read_f64_bits(srcs[0])),
                                    f64_from_bits(regs.read_f64_bits(srcs[1]))))
    elif opcode == "DMUL":
        regs.write_f64(dest, dmul64(f64_from_bits(regs.read_f64_bits(srcs[0])),
                                    f64_from_bits(regs.read_f64_bits(srcs[1]))))
    elif opcode == "DFMA":
        regs.write_f64(dest, dfma64(f64_from_bits(regs.read_f64_bits(srcs[0])),
                                    f64_from_bits(regs.read_f64_bits(srcs[1])),
                                    f64_from_bits(regs.read_f64_bits(srcs[2]))))
    elif opcode == "MUFU":
        func = next(m for m in mods if m != "FTZ")
        if func == "RCP64H":
            regs.write_u32(dest, mufu_rcp64h(regs.read_u32(srcs[0])))
        else:
            put32(_MUFU[func](src32(srcs[0])))
    else:
        raise ValueError(f"oracle cannot evaluate {opcode}")
