"""Warp-state unit tests: registers, predicates, the divergence stack,
and the converged fast path's whole-row writes."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gpu.decode import decode_program
from repro.gpu.warp import (FULL_MASK, WARP_SIZE, CohortView, StackFrame,
                            Warp, WarpSet)
from repro.sass import KernelCode
from repro.sass.operands import NUM_PREDS, NUM_REGS, PT, RZ


def make_warp(active=WARP_SIZE):
    return Warp(warp_id=0, block_id=0, first_thread=0, active_lanes=active)


class TestRegisters:
    def test_rz_reads_zero(self):
        w = make_warp()
        assert (w.read_u32(RZ) == 0).all()

    def test_rz_write_discarded(self):
        w = make_warp()
        w.write_u32(RZ, np.full(WARP_SIZE, 7, dtype=np.uint32),
                    np.ones(WARP_SIZE, dtype=bool))
        assert (w.read_u32(RZ) == 0).all()

    def test_masked_write(self):
        w = make_warp()
        mask = np.zeros(WARP_SIZE, dtype=bool)
        mask[::2] = True
        w.write_u32(5, np.full(WARP_SIZE, 9, dtype=np.uint32), mask)
        vals = w.read_u32(5)
        assert (vals[::2] == 9).all()
        assert (vals[1::2] == 0).all()

    @given(st.floats(allow_nan=False))
    def test_f64_pair_roundtrip(self, x):
        w = make_warp()
        mask = np.ones(WARP_SIZE, dtype=bool)
        w.write_f64_pair(10, np.full(WARP_SIZE, x), mask)
        assert (w.read_f64_pair(10) == x).all()

    def test_f64_pair_halves_are_32bit(self):
        w = make_warp()
        mask = np.ones(WARP_SIZE, dtype=bool)
        w.write_f64_pair(10, np.full(WARP_SIZE, 1.5), mask)
        import struct
        bits = struct.unpack("<Q", struct.pack("<d", 1.5))[0]
        assert w.read_u32(10)[0] == bits & 0xFFFFFFFF
        assert w.read_u32(11)[0] == bits >> 32

    def test_pt_always_true(self):
        w = make_warp()
        assert w.read_pred(PT).all()
        w.write_pred(PT, np.zeros(WARP_SIZE, dtype=bool),
                     np.ones(WARP_SIZE, dtype=bool))
        assert w.read_pred(PT).all()

    def test_negated_pred_read(self):
        w = make_warp()
        vals = np.zeros(WARP_SIZE, dtype=bool)
        vals[:4] = True
        w.write_pred(2, vals, np.ones(WARP_SIZE, dtype=bool))
        assert (w.read_pred(2, negated=True) == ~vals).all()


class TestPartialWarp:
    def test_tail_lanes_inactive(self):
        w = make_warp(active=20)
        assert w.active.sum() == 20
        assert w.exited.sum() == 12

    def test_partial_warp_exit(self):
        """EXIT on every active lane finishes a partial warp (its tail
        lanes were never active)."""
        w = make_warp(active=20)
        exit_op = decode_program(KernelCode.assemble("k", "EXIT ;")).ops[0]
        assert exit_op.execute(SimpleNamespace(warp=w), w.active)
        assert w.done
        assert w.exited.all()


class TestDivergenceStack:
    def test_ssy_then_div_then_reconverge(self):
        w = make_warp()
        w.pc = 10
        w.push_ssy(50)
        taken = np.zeros(WARP_SIZE, dtype=bool)
        taken[:16] = True
        w.push_div(30, taken)
        w.active = ~taken
        # fall-through path hits SYNC
        assert w.pop_to_pending()
        assert w.pc == 30
        assert (w.active == taken).all()
        # taken path hits SYNC: reconverge at 50 with the full mask
        assert w.pop_to_pending()
        assert w.pc == 50
        assert w.active.all()

    def test_exited_lanes_excluded_on_reconverge(self):
        w = make_warp()
        w.push_ssy(50)
        half = np.zeros(WARP_SIZE, dtype=bool)
        half[:16] = True
        w.exited |= half          # those lanes exited inside the region
        w.active = ~half
        assert w.pop_to_pending()
        assert w.pc == 50
        assert (w.active == ~half).all()

    def test_fully_exited_region_unwinds(self):
        w = make_warp()
        w.push_ssy(50)
        w.exited[:] = True
        w.active[:] = False
        assert not w.pop_to_pending()
        assert w.done

    def test_empty_pending_path_skipped(self):
        w = make_warp()
        w.push_ssy(50)
        dead = np.zeros(WARP_SIZE, dtype=bool)
        dead[:4] = True
        w.push_div(30, dead)
        w.exited |= dead          # the pending path's lanes all exited
        w.active = np.zeros(WARP_SIZE, dtype=bool)
        assert w.pop_to_pending()
        assert w.pc == 50         # skipped straight to the SSY frame

    def test_nested_divergence(self):
        """An if inside an if: two SSY frames, inner resolves first."""
        w = make_warp()
        w.push_ssy(100)
        outer_taken = np.zeros(WARP_SIZE, dtype=bool)
        outer_taken[:16] = True
        w.push_div(60, outer_taken)
        w.active = ~outer_taken
        w.push_ssy(40)
        inner_taken = np.zeros(WARP_SIZE, dtype=bool)
        inner_taken[16:24] = True
        w.push_div(35, inner_taken)
        w.active = ~outer_taken & ~inner_taken
        # inner else-path syncs -> inner taken path
        assert w.pop_to_pending()
        assert w.pc == 35
        # inner taken syncs -> inner reconvergence
        assert w.pop_to_pending()
        assert w.pc == 40
        assert (w.active == ~outer_taken).all()
        # outer else syncs -> outer taken path
        assert w.pop_to_pending()
        assert w.pc == 60
        # outer taken syncs -> outer reconvergence, all lanes
        assert w.pop_to_pending()
        assert w.pc == 100
        assert w.active.all()


class TestDivergenceEndToEnd:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_arbitrary_divergence_pattern(self, pattern):
        """Every lane takes its branch by bit; both paths must write the
        correct value regardless of the mask shape."""
        from repro.gpu import Device, LaunchConfig
        from repro.sass import KernelCode

        dev = Device()
        mask_arr = np.array(
            [(pattern >> i) & 1 for i in range(WARP_SIZE)],
            dtype=np.uint32)
        addr = dev.alloc_array(mask_arr)
        out = dev.alloc_zeros(4 * WARP_SIZE)
        code = KernelCode.assemble("divtest", f"""
            S2R R0, SR_LANEID ;
            MOV32I R2, {addr:#x} ;
            IMAD R3, R0, 0x4, R2 ;
            LDG.E R4, [R3] ;
            ISETP.NE.AND P0, PT, R4, 0x0, PT ;
            MOV32I R5, {out:#x} ;
            IMAD R6, R0, 0x4, R5 ;
            SSY reconv ;
        @P0 BRA taken ;
            MOV32I R7, 0x64 ;
            STG.E R7, [R6] ;
            SYNC ;
        taken:
            MOV32I R7, 0xc8 ;
            STG.E R7, [R6] ;
            SYNC ;
        reconv:
            EXIT ;
        """)
        dev._launch_kernel(code, LaunchConfig(1, WARP_SIZE))
        got = dev.read_back(out, np.uint32, WARP_SIZE)
        expect = np.where(mask_arr != 0, 200, 100)
        assert (got == expect).all()


# -- the converged fast path ---------------------------------------------------

#: Destinations: an ordinary register, the one below RZ (an f64 pair
#: there drops its high half into RZ) and RZ itself; for predicates an
#: ordinary one, the one below PT, and PT.
_DESTS = (5, RZ - 1, RZ)
_PRED_DESTS = (1, PT - 1, PT)


def _random_planes(n_warps, seed):
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 2 ** 32, size=(n_warps, NUM_REGS, WARP_SIZE),
                        dtype=np.uint32)
    preds = rng.random((n_warps, NUM_PREDS, WARP_SIZE)) < 0.5
    return regs, preds


def _write_all(target, dest, pdest, shape, mask):
    """Every write kind the engines issue, with fixed values."""
    rng = np.random.default_rng(dest * 31 + pdest)
    u32 = rng.integers(0, 2 ** 32, size=shape, dtype=np.uint32)
    target.write_u32(dest, u32, mask)
    target.write_u32(dest, u32[..., ::-1], mask)
    target.write_f32(dest, (u32 >> np.uint32(9)).view(np.float32), mask)
    target.write_f64_pair(dest, rng.standard_normal(shape), mask)
    target.write_pred(pdest, rng.random(shape) < 0.5, mask)
    # broadcast values: one 32-lane row for every cohort warp
    target.write_u32(dest, u32.reshape(-1, WARP_SIZE)[0], mask)


class TestFullMaskWrites:
    """A write under the shared all-lanes mask stores exactly what the
    same write under a fresh ``np.ones`` mask stores."""

    def test_shared_masks_are_read_only(self):
        assert not FULL_MASK.flags.writeable
        assert FULL_MASK.all() and FULL_MASK.shape == (WARP_SIZE,)
        with pytest.raises(ValueError):
            FULL_MASK[0] = False
        wset = WarpSet(4)
        cohort = wset.full_mask(3)
        assert not cohort.flags.writeable
        assert cohort.all() and cohort.shape == (3, WARP_SIZE)
        with pytest.raises(ValueError):
            cohort[1, 2] = False
        # one mask per size, owned by its set
        assert wset.full_mask(3) is cohort
        assert WarpSet(4).full_mask(3) is not cohort
        assert CohortView(wset, np.arange(3)).full_mask is cohort

    @pytest.mark.parametrize("dest", _DESTS)
    @pytest.mark.parametrize("pdest", _PRED_DESTS)
    def test_warp(self, dest, pdest):
        regs, preds = _random_planes(1, seed=dest + pdest)
        fast = Warp(0, 0, 0, regs=regs[0].copy(), preds=preds[0].copy())
        slow = Warp(0, 0, 0, regs=regs[0].copy(), preds=preds[0].copy())
        _write_all(fast, dest, pdest, (WARP_SIZE,), FULL_MASK)
        _write_all(slow, dest, pdest, (WARP_SIZE,),
                   np.ones(WARP_SIZE, dtype=bool))
        assert np.array_equal(fast.regs, slow.regs)
        assert np.array_equal(fast.preds, slow.preds)
        assert (fast.read_u32(RZ) == 0).all() and fast.read_pred(PT).all()

    @pytest.mark.parametrize("rows", [[1, 2, 3], [0, 2, 5]],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("dest", _DESTS)
    @pytest.mark.parametrize("pdest", _PRED_DESTS)
    def test_cohort_view(self, rows, dest, pdest):
        regs, preds = _random_planes(6, seed=dest + pdest + len(rows))
        sets = []
        for _ in range(2):
            wset = WarpSet(6)
            wset.regs[:] = regs
            wset.preds[:] = preds
            sets.append(wset)
        idx = np.asarray(rows, dtype=np.intp)
        fast, slow = (CohortView(wset, idx) for wset in sets)
        assert fast._dense == (rows == [1, 2, 3])
        shape = (len(rows), WARP_SIZE)
        _write_all(fast, dest, pdest, shape, fast.full_mask)
        _write_all(slow, dest, pdest, shape, np.ones(shape, dtype=bool))
        assert np.array_equal(sets[0].regs, sets[1].regs)
        assert np.array_equal(sets[0].preds, sets[1].preds)
        # rows outside the cohort are untouched
        others = [i for i in range(6) if i not in rows]
        assert np.array_equal(sets[0].regs[others], regs[others])
