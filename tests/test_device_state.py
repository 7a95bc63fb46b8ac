"""Per-run device state costs only what a run touches.

The GT table and global memory model megabytes of device memory; the
host must not pay for them up front.  These tests pin that (a
``tracemalloc`` ceiling on the constructors), the privacy of the
demand-zeroed buffer across ``fork``, and that resets still clear every
byte a run wrote — stores past the allocator pointer included.
"""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from repro.fpx.detector import FPXDetector
from repro.fpx.gt import GlobalTable
from repro.gpu.device import Device
from repro.gpu.memory import GlobalMemory, MegaGlobalMemory

_MB = 1 << 20


@pytest.mark.parametrize("make", [
    GlobalTable,
    FPXDetector,
    Device,
    lambda: MegaGlobalMemory(GlobalMemory(), 8),
], ids=["GlobalTable", "FPXDetector", "Device", "MegaGlobalMemory-8"])
def test_constructor_allocates_under_1mb(make):
    make()  # imports and lazy set-up happen outside the traced region
    tracemalloc.start()
    try:
        make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _MB, f"{peak / _MB:.1f} MB traced"


def _store_and_check(gm, addr):
    gm.write_array(addr, np.array([0xDEADBEEF], dtype=np.uint32))
    if gm.read_array(addr, np.uint32, 1)[0] != 0xDEADBEEF:
        raise SystemExit(3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_store_stays_private():
    gm = GlobalMemory(size_bytes=1 << 16)
    addr = gm.alloc(4)
    proc = multiprocessing.get_context("fork").Process(
        target=_store_and_check, args=(gm, addr))
    proc.start()
    proc.join(timeout=60)
    assert not proc.is_alive()
    assert proc.exitcode == 0
    assert gm.read_array(addr, np.uint32, 1)[0] == 0


def _store_word(gm, addr, value):
    gm.store_u32(np.full(32, addr, dtype=np.uint32),
                 np.full(32, value, dtype=np.uint32),
                 np.eye(1, 32, dtype=bool)[0])


def _word(gm, addr):
    return int(gm.read_array(addr, np.uint32, 1)[0])


class TestStraysPastTheAllocator:
    def test_restore_clears_store_past_allocator(self):
        gm = GlobalMemory()
        base = gm.alloc(16)
        state = gm.snapshot()
        _store_word(gm, base + 4096, 0xDEADBEEF)
        assert _word(gm, base + 4096) == 0xDEADBEEF
        gm.restore(state)
        assert _word(gm, base + 4096) == 0

    def test_restore_keeps_snapshotted_stray(self):
        gm = GlobalMemory()
        base = gm.alloc(16)
        _store_word(gm, base + 4096, 7)
        state = gm.snapshot()
        _store_word(gm, base + 4096, 9)
        gm.restore(state)
        assert _word(gm, base + 4096) == 7

    def test_reset_clears_store_past_allocator(self):
        gm = GlobalMemory()
        base = gm.alloc(16)
        gm.write_array(base, np.arange(4, dtype=np.uint32))
        _store_word(gm, base + 8192, 0xDEADBEEF)
        gm.reset()
        assert _word(gm, base + 8192) == 0
        assert not gm.read_array(base, np.uint32, 4).any()

    def test_megabatch_replicates_stray(self):
        """A member sees the same image a serial launch would, strays
        included."""
        gm = GlobalMemory(size_bytes=1 << 16)
        base = gm.alloc(16)
        _store_word(gm, base + 4096, 0xCAFE)
        mega = MegaGlobalMemory(gm, 3)
        for m in range(3):
            assert _word(mega.member_view(m), base + 4096) == 0xCAFE
