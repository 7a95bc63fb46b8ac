"""Compiler tests: DSL -> SASS correctness and fast-math codegen effects."""

import random

import numpy as np
import pytest

from repro.compiler import (
    CompileOptions,
    KernelBuilder,
    compile_kernel,
    f32,
    f64,
)
from repro.compiler.dsl import Call, Cmp, Const, DType, Select
from repro.compiler.lowering import LoweringError, Val, _RegAlloc
from repro.gpu import Device, LaunchConfig
from repro.sass.operands import RZ


def run_compiled(compiled, device, *, grid=1, block=32, **params):
    words = compiled.param_words(**params)
    return device._launch_kernel(compiled.code, LaunchConfig(grid, block), words)


def elementwise_f32(fn, xs, *, options=None, block=32, name="ew"):
    """Compile y[i] = fn(x[i]) and run it over ``xs``."""
    kb = KernelBuilder(name)
    xp = kb.ptr_param("x")
    yp = kb.ptr_param("y")
    i = kb.global_idx()
    xi = kb.let("xi", kb.load_f32(xp, i))
    kb.store(yp, i, fn(kb, xi))
    compiled = compile_kernel(kb.build(), options)

    device = Device()
    xs = np.asarray(xs, dtype=np.float32)
    assert xs.size <= block
    data = np.zeros(block, dtype=np.float32)
    data[:xs.size] = xs
    ax = device.alloc_array(data)
    ay = device.alloc_zeros(4 * block)
    run_compiled(compiled, device, block=block, x=ax, y=ay)
    return device.read_back(ay, np.float32, block)[:xs.size]


class _MinRegAlloc:
    """The allocator's reference semantics: the lowest free register,
    found by ``min()`` over the free set."""

    def __init__(self):
        self.free_regs = set(range(4, 250))

    def alloc(self, dtype):
        if dtype is DType.F64:
            for r in sorted(self.free_regs):
                if r % 2 == 0 and (r + 1) in self.free_regs:
                    self.free_regs -= {r, r + 1}
                    return r
            raise LoweringError("out of FP64 register pairs")
        if not self.free_regs:
            raise LoweringError("out of registers")
        r = min(self.free_regs)
        self.free_regs.discard(r)
        return r

    def free(self, val):
        if val.pinned or val.reg == RZ:
            return
        self.free_regs.add(val.reg)
        if val.dtype is DType.F64:
            self.free_regs.add(val.reg + 1)


class TestRegAlloc:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_min_reference(self, seed):
        rng = random.Random(seed)
        got, ref = _RegAlloc(), _MinRegAlloc()
        live, freed, exhausted = [], [], 0
        for step in range(3000):
            roll = rng.random()
            if roll < 0.55 or not live:
                dtype = DType.F64 if rng.random() < 0.3 else DType.F32
                outcomes = []
                for alloc in (got, ref):
                    try:
                        outcomes.append(alloc.alloc(dtype))
                    except LoweringError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (seed, step, dtype)
                if isinstance(outcomes[0], str):
                    exhausted += 1
                    continue
                if dtype is DType.F64:
                    assert outcomes[0] % 2 == 0
                live.append(Val(outcomes[0], dtype))
            else:
                # Frees include pinned values, RZ and values freed
                # before: each allocator must treat them alike.
                if roll < 0.9:
                    val = live.pop(rng.randrange(len(live)))
                    freed.append(val)
                elif roll < 0.95 and freed:
                    val = rng.choice(freed)
                else:
                    val = Val(rng.choice([RZ, 7]), DType.F32, pinned=True)
                got.free(val)
                ref.free(val)
        assert exhausted, "the sequence never ran out of registers"


class TestBasicCodegen:
    def test_saxpy(self):
        kb = KernelBuilder("saxpy")
        a = kb.f32_param("a")
        xp = kb.ptr_param("x")
        yp = kb.ptr_param("y")
        n = kb.i32_param("n")
        i = kb.global_idx()
        kb.guard_return(i >= n)
        kb.store(yp, i, a * kb.load_f32(xp, i) + kb.load_f32(yp, i))
        compiled = compile_kernel(kb.build())

        device = Device()
        x = np.arange(16, dtype=np.float32)
        y = np.ones(16, dtype=np.float32)
        ax, ay = device.alloc_array(x), device.alloc_array(y)
        run_compiled(compiled, device, a=2.0, x=ax, y=ay, n=16)
        out = device.read_back(ay, np.float32, 16)
        np.testing.assert_array_equal(out, 2.0 * x + 1.0)

    def test_guard_return_bounds(self):
        kb = KernelBuilder("bounded")
        yp = kb.ptr_param("y")
        n = kb.i32_param("n")
        i = kb.global_idx()
        kb.guard_return(i >= n)
        kb.store(yp, i, f32(7.0) + 0.0)
        compiled = compile_kernel(kb.build())
        device = Device()
        ay = device.alloc_zeros(4 * 32)
        run_compiled(compiled, device, y=ay, n=5)
        out = device.read_back(ay, np.float32, 32)
        assert list(out[:5]) == [7.0] * 5
        assert list(out[5:]) == [0.0] * 27

    def test_division_precise_accuracy(self):
        out = elementwise_f32(lambda kb, x: x / (x + 1.0),
                              [1.0, 2.0, 3.0, 10.0])
        expect = np.float32([1, 2, 3, 10]) / np.float32([2, 3, 4, 11])
        np.testing.assert_allclose(out, expect, rtol=1e-6)

    def test_division_fast_accuracy(self):
        out = elementwise_f32(lambda kb, x: x / (x + 1.0),
                              [1.0, 2.0, 3.0, 10.0],
                              options=CompileOptions.fast_math())
        expect = np.float32([1, 2, 3, 10]) / np.float32([2, 3, 4, 11])
        np.testing.assert_allclose(out, expect, rtol=1e-5)

    def test_sqrt_precise_handles_zero(self):
        out = elementwise_f32(lambda kb, x: kb.sqrt(x), [0.0, 4.0, 9.0])
        np.testing.assert_allclose(out, [0.0, 2.0, 3.0], rtol=1e-6)

    def test_exp_log(self):
        out = elementwise_f32(lambda kb, x: kb.exp(x), [0.0, 1.0, -1.0])
        np.testing.assert_allclose(out, np.exp([0.0, 1.0, -1.0]), rtol=1e-5)
        out = elementwise_f32(lambda kb, x: kb.log(x), [1.0, np.e, 10.0])
        np.testing.assert_allclose(out, [0.0, 1.0, np.log(10.0)],
                                   rtol=1e-5, atol=1e-6)

    def test_select(self):
        out = elementwise_f32(
            lambda kb, x: kb.select(x > 2.0, x, -x),
            [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out, [-1.0, -2.0, 3.0, 4.0])

    def test_minmax(self):
        out = elementwise_f32(lambda kb, x: kb.minimum(x, 2.5),
                              [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out, [1.0, 2.0, 2.5, 2.5])
        out = elementwise_f32(lambda kb, x: kb.maximum(x, 2.5),
                              [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out, [2.5, 2.5, 3.0, 4.0])

    def test_if_predication(self):
        kb = KernelBuilder("pred")
        yp = kb.ptr_param("y")
        i = kb.global_idx()
        v = kb.let("v", f32(1.0) + 0.0)
        icast = kb.cast_f32(i)
        with kb.if_(icast > 15.0):
            kb.assign(v, v + 10.0)
        kb.store(yp, i, v)
        compiled = compile_kernel(kb.build())
        device = Device()
        ay = device.alloc_zeros(4 * 32)
        run_compiled(compiled, device, y=ay)
        out = device.read_back(ay, np.float32, 32)
        assert list(out[:16]) == [1.0] * 16
        assert list(out[16:]) == [11.0] * 16

    def test_fp64_roundtrip(self):
        kb = KernelBuilder("d64")
        xp = kb.ptr_param("x")
        yp = kb.ptr_param("y")
        i = kb.global_idx()
        xi = kb.let("xi", kb.load_f64(xp, i))
        kb.store(yp, i, xi * f64(3.0) + f64(1.5))
        compiled = compile_kernel(kb.build())
        device = Device()
        x = np.arange(8, dtype=np.float64)
        ax = device.alloc_array(x)
        ay = device.alloc_zeros(8 * 8)
        run_compiled(compiled, device, block=8, x=ax, y=ay)
        out = device.read_back(ay, np.float64, 8)
        np.testing.assert_array_equal(out, 3.0 * x + 1.5)

    def test_fp64_division(self):
        kb = KernelBuilder("ddiv")
        xp = kb.ptr_param("x")
        yp = kb.ptr_param("y")
        i = kb.global_idx()
        xi = kb.let("xi", kb.load_f64(xp, i))
        kb.store(yp, i, f64(1.0) / xi)
        compiled = compile_kernel(kb.build())
        device = Device()
        x = np.array([2.0, 3.0, 7.0, 1e9], dtype=np.float64)
        ax = device.alloc_array(x)
        ay = device.alloc_zeros(8 * 32)
        run_compiled(compiled, device, block=4, x=ax, y=ay)
        out = device.read_back(ay, np.float64, 4)
        np.testing.assert_allclose(out, 1.0 / x, rtol=1e-12)

    def test_assign_generates_shared_register_instruction(self):
        """acc = acc + x must reuse the accumulator register."""
        kb = KernelBuilder("acc")
        yp = kb.ptr_param("y")
        i = kb.global_idx()
        acc = kb.let("acc", f32(0.0) + 0.0)
        for _ in range(3):
            kb.assign(acc, acc + 1.25)
        kb.store(yp, i, acc)
        compiled = compile_kernel(kb.build())
        shared = [ins for ins in compiled.code
                  if ins.opcode == "FADD" and ins.shares_dest_with_source()]
        assert len(shared) >= 3
        device = Device()
        ay = device.alloc_zeros(4 * 32)
        run_compiled(compiled, device, y=ay)
        assert device.read_back(ay, np.float32, 1)[0] == 3.75

    def test_line_info_attached(self):
        kb = KernelBuilder("lined", source_file="kernel_ecc_3.cu")
        yp = kb.ptr_param("y")
        kb.store(yp, 0, f32(1.0) + 2.0)
        compiled = compile_kernel(kb.build())
        locs = {ins.source_loc for ins in compiled.code
                if ins.source_loc is not None}
        assert any(loc.startswith("kernel_ecc_3.cu:") for loc in locs)

    def test_closed_source_has_no_line_info(self):
        kb = KernelBuilder("closed")
        yp = kb.ptr_param("y")
        kb.store(yp, 0, f32(1.0) + 2.0)
        compiled = compile_kernel(
            kb.build(), CompileOptions.precise(emit_line_info=False))
        assert not compiled.code.has_source_info


class TestFastMathCodegen:
    """Each documented --use_fast_math effect, checked at the SASS level."""

    def _compile_both(self, build):
        kb_p, kb_f = KernelBuilder("k"), KernelBuilder("k")
        build(kb_p)
        build(kb_f)
        precise = compile_kernel(kb_p.build(), CompileOptions.precise())
        fast = compile_kernel(kb_f.build(), CompileOptions.fast_math())
        return precise, fast

    def test_effect1_ftz_flag_on_fp32_ops(self):
        def build(kb):
            x = kb.ptr_param("x")
            i = kb.global_idx()
            kb.store(x, i, kb.load_f32(x, i) * 2.0)
        precise, fast = self._compile_both(build)
        p_ftz = [ins for ins in precise.code if ins.has_modifier("FTZ")]
        f_ftz = [ins for ins in fast.code if ins.has_modifier("FTZ")]
        assert not p_ftz
        assert f_ftz

    def test_effect2_division_expansion_length(self):
        def build(kb):
            x = kb.ptr_param("x")
            i = kb.global_idx()
            kb.store(x, i, kb.load_f32(x, i) / 3.0)
        precise, fast = self._compile_both(build)
        p_ffma = sum(1 for ins in precise.code if ins.opcode == "FFMA")
        f_ffma = sum(1 for ins in fast.code if ins.opcode == "FFMA")
        assert p_ffma >= 3  # Newton + residual refinement
        assert f_ffma == 0  # bare RCP + FMUL

    def test_effect3_fma_contraction(self):
        def build(kb):
            x = kb.ptr_param("x")
            i = kb.global_idx()
            a = kb.let("a", kb.load_f32(x, i))
            kb.store(x, i, a * a + 1.0)
        precise, fast = self._compile_both(build)
        assert not any(ins.opcode == "FFMA" for ins in precise.code)
        assert any(ins.opcode == "FFMA" for ins in fast.code)

    def test_fp64_contraction(self):
        def build(kb):
            x = kb.ptr_param("x")
            i = kb.global_idx()
            a = kb.let("a", kb.load_f64(x, i))
            kb.store(x, i, a * a + f64(1.0))
        precise, fast = self._compile_both(build)
        assert not any(ins.opcode == "DFMA" for ins in precise.code)
        assert any(ins.opcode == "DFMA" for ins in fast.code)

    def test_integer_multiply_add_not_contracted(self):
        """Contraction is an FP rewrite: an I32 ``a*b + c`` stays
        IMAD/IADD3 under fast-math, identical to precise codegen."""
        def build(kb):
            x = kb.ptr_param("x")
            n = kb.i32_param("n")
            i = kb.global_idx()
            kb.store(x, i * n + 3, kb.load_f32(x, i))
        precise, fast = self._compile_both(build)
        opcodes = [ins.opcode for ins in fast.code]
        assert "IMAD" in opcodes and "IADD3" in opcodes
        assert "DFMA" not in opcodes and "FFMA" not in opcodes
        assert fast.code.disassemble() == precise.code.disassemble()

    def test_ftz_changes_results(self):
        """A subnormal product flushes to zero under fast-math."""
        xs = [1e-30]
        out_p = elementwise_f32(lambda kb, x: x * 1e-10, xs)
        out_f = elementwise_f32(lambda kb, x: x * 1e-10, xs,
                                options=CompileOptions.fast_math())
        assert out_p[0] != 0.0
        assert out_f[0] == 0.0

    def test_fp64_transcendental_sfu_binding(self):
        """FP64 exp() narrows to the FP32 SFU even in precise mode —
        how FP64-only programs get FP32 exceptions (§4.1)."""
        kb = KernelBuilder("dexp")
        xp = kb.ptr_param("x")
        i = kb.global_idx()
        xi = kb.let("xi", kb.load_f64(xp, i))
        kb.store(xp, i, kb.exp(xi))
        compiled = compile_kernel(kb.build())
        opcodes = [ins.get_opcode() for ins in compiled.code]
        assert "F2F.F32.F64" in opcodes
        assert "MUFU.EX2" in opcodes
        assert "F2F.F64.F32" in opcodes

        device = Device()
        x = np.array([0.0, 1.0, 2.0], dtype=np.float64)
        ax = device.alloc_array(x)
        run_compiled(compiled, device, block=3, x=ax)
        out = device.read_back(ax, np.float64, 3)
        np.testing.assert_allclose(out, np.exp(x), rtol=1e-6)


class TestDivisionExceptionSignatures:
    """The DIV0 asymmetry between precise and fast division."""

    def _detect(self, options, xs, divisors):
        from repro.fpx import FPXDetector
        from repro.nvbit import LaunchSpec
        from tests.util import make_runtime

        kb = KernelBuilder("divk")
        xp = kb.ptr_param("x")
        dp = kb.ptr_param("d")
        yp = kb.ptr_param("y")
        i = kb.global_idx()
        kb.store(yp, i, kb.load_f32(xp, i) / kb.load_f32(dp, i))
        compiled = compile_kernel(kb.build(), options)

        device = Device()
        n = 32
        x = np.zeros(n, dtype=np.float32)
        d = np.ones(n, dtype=np.float32)
        x[:len(xs)] = xs
        d[:len(divisors)] = divisors
        ax, ad = device.alloc_array(x), device.alloc_array(d)
        ay = device.alloc_zeros(4 * n)
        det = FPXDetector()
        runtime = make_runtime(device, det)
        runtime.run_program([LaunchSpec(
            compiled.code, LaunchConfig(1, n),
            tuple(compiled.param_words(x=ax, d=ad, y=ay)))])
        return det.report()

    def test_zero_divisor_raises_div0_in_both_modes(self):
        from repro.fpx import ExceptionKind, FPFormat
        rep_p = self._detect(CompileOptions.precise(), [1.0], [0.0])
        rep_f = self._detect(CompileOptions.fast_math(), [1.0], [0.0])
        assert rep_p.count(FPFormat.FP32, ExceptionKind.DIV0) == 1
        assert rep_f.count(FPFormat.FP32, ExceptionKind.DIV0) == 1

    def test_precise_newton_chain_generates_nans(self):
        """0 x INF inside the Newton refinement — GRAMSCHM's signature.

        The whole division expansion shares one source line, so however
        many SASS-level NaNs the chain produces, E_loc dedup reports one
        NaN record (plus the DIV0) for the division site — exactly how
        closed-source HPCG can show a single NaN (Table 4)."""
        from repro.fpx import ExceptionKind, FPFormat
        rep = self._detect(CompileOptions.precise(), [1.0], [0.0])
        assert rep.count(FPFormat.FP32, ExceptionKind.NAN) == 1
        assert rep.count(FPFormat.FP32, ExceptionKind.DIV0) == 1

    def test_subnormal_divisor_flushed_to_div0_under_fastmath(self):
        """Table 6's myocyte story: FTZ turns a subnormal divisor into a
        zero, so new DIV0s appear under --use_fast_math."""
        from repro.fpx import ExceptionKind, FPFormat
        sub = 1e-40  # subnormal in FP32
        rep_p = self._detect(CompileOptions.precise(), [1.0], [sub])
        rep_f = self._detect(CompileOptions.fast_math(), [1.0], [sub])
        assert rep_p.count(FPFormat.FP32, ExceptionKind.DIV0) == 0
        assert rep_f.count(FPFormat.FP32, ExceptionKind.DIV0) == 1
