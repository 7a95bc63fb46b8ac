"""Executor/memory robustness: malformed programs fail loudly, and a
kernel that never exits stops at the execution budget."""

import time

import numpy as np
import pytest

from repro.api import EXECUTION_PATHS, Session
from repro.fpx import FPXDetector
from repro.gpu import Device, LaunchConfig
from repro.gpu.executor import WARP_INSTR_BUDGET, ExecutionError
from repro.nvbit import LaunchSpec
from repro.gpu.memory import ConstBanks, GlobalMemory, SharedMemory
from repro.sass import KernelCode


def run(text, **kw):
    dev = Device()
    code = KernelCode.assemble("k", text)
    return dev._launch_kernel(code, LaunchConfig(1, kw.pop("block", 32)))


class TestExecutorErrors:
    def test_unknown_special_register(self):
        with pytest.raises(ExecutionError, match="special register"):
            run("""
                S2R R0, SR_BOGUS ;
                EXIT ;
            """)

    def test_lds_out_of_bounds(self):
        with pytest.raises(IndexError):
            run("""
                MOV32I R1, 0xffff0 ;
                LDS R2, [R1] ;
                EXIT ;
            """)

    def test_global_load_out_of_bounds(self):
        with pytest.raises(IndexError):
            run("""
                MOV32I R1, 0x7fffff00 ;
                LDG.E R2, [R1] ;
                EXIT ;
            """)

    def test_misaligned_global_access(self):
        with pytest.raises(ValueError, match="misaligned"):
            run("""
                MOV32I R1, 0x101 ;
                LDG.E R2, [R1] ;
                EXIT ;
            """)

    def test_mufu_without_function(self):
        from repro.sass import parse_instruction
        from repro.sass.program import KernelCode as KC
        instrs = [parse_instruction("MUFU R1, R2 ;"),
                  parse_instruction("EXIT ;")]
        code = KC("k", instrs, {})
        with pytest.raises(ExecutionError, match="MUFU without"):
            Device()._launch_kernel(code, LaunchConfig(1, 32))

    def test_null_deref_caught(self):
        """Address 0 is unmapped... actually low addresses are valid in
        our flat memory; a store to the guard page below the first
        allocation succeeds silently, so we just check OOB at the top."""
        dev = Device(global_mem=GlobalMemory(size_bytes=4096))
        code = KernelCode.assemble("k", """
            MOV32I R1, 0x2000 ;
            STG.E R2, [R1] ;
            EXIT ;
        """)
        with pytest.raises(IndexError):
            dev._launch_kernel(code, LaunchConfig(1, 32))


SPIN = """
spin:
    BRA spin ;
    EXIT ;
"""


def counted_loop(iterations: int) -> str:
    """A kernel whose every warp runs ``4 * iterations + 4`` warp
    instructions (4 outside the loop, 4 per iteration)."""
    return f"""
        MOV32I R0, {iterations:#x} ;
        NOP ;
        NOP ;
    loop:
        IADD3 R0, R0, -0x1, RZ ;
        ISETP.NE.AND P0, PT, R0, RZ, PT ;
        NOP ;
    @P0 BRA loop ;
        EXIT ;
    """


def _run_path(path: str, text: str):
    """Run ``text`` under a detector on one engine path: two warps (the
    cohort engine needs more than one), or a two-member batch of
    one-warp launches for the megabatch path."""
    code = KernelCode.assemble("k", text)
    with Session(FPXDetector(), **EXECUTION_PATHS[path]) as session:
        if path == "megabatch":
            spec = LaunchSpec(code, LaunchConfig(1, 32))
            result = session.run_batch([spec, spec])
            assert result.engine == "megabatch"
            return [st.warp_instrs for st in result.stats]
        session.run_schedule([LaunchSpec(code, LaunchConfig(1, 64))])
        return [session.stats.warp_instrs]


class TestExecutionBudget:
    @pytest.mark.parametrize("path", sorted(EXECUTION_PATHS))
    def test_kernel_that_never_exits_raises(self, path):
        start = time.perf_counter()
        with pytest.raises(ExecutionError, match="execution budget"):
            _run_path(path, SPIN)
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("path", sorted(EXECUTION_PATHS))
    def test_budget_is_per_warp_and_exact(self, path):
        full = WARP_INSTR_BUDGET // 4 - 1
        assert set(_run_path(path, counted_loop(full))) == \
            {2 * WARP_INSTR_BUDGET if path != "megabatch"
             else WARP_INSTR_BUDGET}
        with pytest.raises(ExecutionError, match="execution budget"):
            _run_path(path, counted_loop(full + 1))


class TestMemoryUnits:
    def test_alloc_bump_and_align(self):
        gm = GlobalMemory(size_bytes=4096)
        a = gm.alloc(10)
        b = gm.alloc(10)
        assert b >= a + 10
        assert a % 16 == 0 and b % 16 == 0

    def test_alloc_exhaustion(self):
        gm = GlobalMemory(size_bytes=1024)
        with pytest.raises(MemoryError):
            gm.alloc(2048)

    def test_reset(self):
        gm = GlobalMemory(size_bytes=4096)
        addr = gm.alloc(16)
        gm.write_array(addr, np.ones(4, dtype=np.float32))
        gm.reset()
        addr2 = gm.alloc(16)
        assert addr2 == addr
        assert (gm.read_array(addr2, np.float32, 4) == 0).all()

    def test_write_read_roundtrip(self):
        gm = GlobalMemory(size_bytes=4096)
        addr = gm.alloc(64)
        data = np.arange(8, dtype=np.float64)
        gm.write_array(addr, data)
        np.testing.assert_array_equal(gm.read_array(addr, np.float64, 8),
                                      data)

    def test_vector_gather_scatter(self):
        gm = GlobalMemory(size_bytes=4096)
        addr = gm.alloc(4 * 32)
        addrs = np.uint32(addr) + 4 * np.arange(32, dtype=np.uint32)
        mask = np.ones(32, dtype=bool)
        vals = np.arange(32, dtype=np.uint32) * 3
        gm.store_u32(addrs, vals, mask)
        got = gm.load_u32(addrs, mask)
        np.testing.assert_array_equal(got, vals)

    def test_masked_lanes_untouched(self):
        gm = GlobalMemory(size_bytes=4096)
        addr = gm.alloc(4 * 32)
        addrs = np.uint32(addr) + 4 * np.arange(32, dtype=np.uint32)
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        gm.store_u32(addrs, np.full(32, 7, dtype=np.uint32), mask)
        got = gm.load_u32(addrs, np.ones(32, dtype=bool))
        assert got[0] == 7 and (got[1:] == 0).all()

    def test_cbank_out_of_bounds(self):
        cb = ConstBanks()
        cb.set_params([1, 2, 3])
        with pytest.raises(IndexError):
            cb.read_u32(0, 10_000)

    def test_cbank_u64(self):
        cb = ConstBanks()
        cb.set_params([0xDEADBEEF, 0x12345678])
        from repro.gpu.memory import PARAM_BASE
        assert cb.read_u64(0, PARAM_BASE) == (0x12345678 << 32) | 0xDEADBEEF

    def test_shared_memory_bounds(self):
        sm = SharedMemory(size_bytes=256)
        addrs = np.full(32, 1024, dtype=np.uint32)
        with pytest.raises(IndexError):
            sm.load_u32(addrs, np.ones(32, dtype=bool))


class TestLaunchConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 32)
        with pytest.raises(ValueError):
            LaunchConfig(1, 0)
        with pytest.raises(ValueError):
            LaunchConfig(1, 2048)
