"""Device memory: global memory, constant banks, shared memory.

Global memory is a flat byte-addressable NumPy buffer with a bump
allocator.  Loads and stores are vectorised gathers/scatters over the 32
lanes of a warp.  The buffer is demand-zeroed anonymous memory, so the
host pays for the pages a run touches, not for the megabytes it models.
Constant banks model SASS ``c[bank][offset]`` operands; kernel
parameters conventionally live in bank 0 starting at :data:`PARAM_BASE`
(0x160), matching real SASS disassembly.
"""

from __future__ import annotations

import mmap

import numpy as np

__all__ = ["GlobalMemory", "MegaGlobalMemory", "MemberGlobalMemory",
           "ConstBanks", "SharedMemory", "PARAM_BASE"]

#: Byte offset of the first kernel parameter in constant bank 0.
PARAM_BASE = 0x160


def _zeroed_bytes(nbytes: int) -> np.ndarray:
    """``nbytes`` zero bytes backed by demand-zeroed anonymous memory.

    The kernel maps a zero page on first touch, so creating a large
    buffer costs nothing up front.  ``MAP_PRIVATE`` matters: an
    anonymous ``mmap`` is ``MAP_SHARED`` by default, and then a forked
    child's stores would show up in the parent's buffer.
    """
    return np.frombuffer(
        mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
        dtype=np.uint8)


class GlobalMemory:
    """Flat global memory with a bump allocator.

    Addresses are 32-bit byte addresses.  Word accesses must be naturally
    aligned; misalignment raises, as real GPUs fault.  Bounds checks cover
    the whole buffer, not the allocations: an access past the allocator
    pointer succeeds silently (:meth:`restore` and :meth:`reset` still
    clear what it stored), and only an address beyond ``size`` faults.
    """

    def __init__(self, size_bytes: int = 1 << 24) -> None:
        # round up to a word multiple so the u32 view spans the buffer
        self.size = (int(size_bytes) + 3) // 4 * 4
        self._buf = _zeroed_bytes(self.size)
        #: Word-aligned alias of ``_buf`` (same storage): since word
        #: accesses must be naturally aligned anyway, gathers/scatters
        #: index this view directly instead of assembling four byte
        #: lanes per word.  Assumes a little-endian host.
        self._buf32 = self._buf.view(np.uint32)
        self._next = 256  # keep address 0 unmapped to catch null derefs
        #: One past the highest byte ever written: every byte from here
        #: on is still zero, so resets zero only ``[0, _written_end)``.
        self._written_end = 0
        #: Statistics used by tests and the cost model.
        self.load_count = 0
        self.store_count = 0

    def alloc(self, nbytes: int, *, align: int = 16) -> int:
        """Allocate ``nbytes`` and return the base address."""
        addr = (self._next + align - 1) // align * align
        if addr + nbytes > self.size:
            raise MemoryError(
                f"global memory exhausted ({addr + nbytes} > {self.size})")
        self._next = addr + nbytes
        return addr

    def reset(self) -> None:
        """Release all allocations and zero the buffer."""
        self._buf[:self._written_end] = 0
        self._written_end = 0
        self._next = 256
        self.load_count = 0
        self.store_count = 0

    def _image_end(self) -> int:
        """End of the prefix that holds every allocation and every byte
        ever written; the buffer is all zero from here on."""
        return max(self._next, self._written_end)

    # -- state snapshot (build-once / run-many) ------------------------------

    def snapshot(self) -> tuple:
        """Freeze the memory image and allocator state.

        Every byte past :meth:`_image_end` is zero, so the snapshot copies
        just that prefix — cheap even though the backing buffer is
        megabytes.
        """
        return (self._buf[:self._image_end()].copy(), self._next,
                self.load_count, self.store_count)

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`'s exact memory and allocator
        state (anything allocated or written since is zeroed and
        released, including stores past the allocator pointer)."""
        prefix, nxt, loads, stores = state
        if self._written_end > prefix.size:
            self._buf[prefix.size:self._written_end] = 0
        self._buf[:prefix.size] = prefix
        self._written_end = prefix.size
        self._next = nxt
        self.load_count = loads
        self.store_count = stores

    # -- bulk host-side access ---------------------------------------------

    def write_array(self, addr: int, arr: np.ndarray) -> None:
        """Copy a host array into global memory at ``addr``."""
        raw = np.ascontiguousarray(arr).view(np.uint8).ravel()
        self._check(addr, raw.nbytes)
        self._buf[addr:addr + raw.nbytes] = raw
        self._written_end = max(self._written_end, addr + raw.nbytes)

    def read_array(self, addr: int, dtype: np.dtype, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` from ``addr`` into a host array."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self._check(addr, nbytes)
        return self._buf[addr:addr + nbytes].view(dtype).copy()

    # -- warp-vectorised access (gather/scatter) ----------------------------

    def load_u32(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather 32-bit words at per-lane ``addrs`` under ``mask``."""
        out = np.zeros(addrs.shape, dtype=np.uint32)
        a = addrs[mask].astype(np.int64)
        if a.size:
            self._check_vec(a, 4)
            out[mask] = self._buf32[a >> 2]
            self.load_count += a.size
        return out

    def store_u32(self, addrs: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> None:
        """Scatter 32-bit words to per-lane ``addrs`` under ``mask``."""
        a = addrs[mask].astype(np.int64)
        if not a.size:
            return
        end = self._check_vec(a, 4)
        self._buf32[a >> 2] = values[mask].astype(np.uint32)
        self._written_end = max(self._written_end, end)
        self.store_count += a.size

    def load_u64(self, addrs: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Gather 64-bit words; returns ``(low_words, high_words)``."""
        low = self.load_u32(addrs, mask)
        high = self.load_u32(addrs + np.uint32(4), mask)
        return low, high

    def store_u64(self, addrs: np.ndarray, low: np.ndarray,
                  high: np.ndarray, mask: np.ndarray) -> None:
        """Scatter 64-bit words given as low/high 32-bit halves."""
        self.store_u32(addrs, low, mask)
        self.store_u32(addrs + np.uint32(4), high, mask)

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise IndexError(f"global memory access out of bounds: "
                             f"addr={addr:#x} nbytes={nbytes}")

    def _check_vec(self, addrs: np.ndarray, width: int) -> int:
        """Check a non-empty address vector; returns one past the
        highest byte it touches."""
        lo, hi = int(addrs.min()), int(addrs.max())
        if lo < 0 or hi + width > self.size:
            raise IndexError(f"global memory access out of bounds: "
                             f"[{lo:#x}, {hi:#x}]")
        if (addrs % width).any():
            raise ValueError("misaligned global memory access")
        return hi + width


class MegaGlobalMemory:
    """N member-launch address spaces packed into one flat buffer.

    The megabatch engine runs N independent launches of one kernel as a
    single stacked pass; each member keeps the *member-local* addresses
    it would have used on the template device (identical pointer params
    across members are the common case), and this class maps member m's
    address ``a`` to ``m * member_size + a`` in the packed buffer.  The
    template device's nonzero prefix (its allocations and every byte
    written) is replicated into every partition of a demand-zeroed
    buffer, so a member sees exactly the memory image a fresh serial
    launch would have seen.  Bounds and alignment are checked on the
    member-local addresses — the partition boundary faults exactly where
    the template device would have.

    Cohort-stacked LDG/STG access goes through :meth:`load_u32` /
    :meth:`store_u32` with ``row_offsets`` set per cohort (one byte
    offset per row of the ``(n, 32)`` address stack); host-side and
    per-member access goes through :meth:`member_view`.
    """

    def __init__(self, template: GlobalMemory, members: int) -> None:
        if members < 1:
            raise ValueError("need at least one member")
        self.member_size = template.size
        self.members = members
        total = self.member_size * members
        if total > (1 << 32):
            raise MemoryError(
                f"megabatch address space exceeds 32 bits: "
                f"{members} x {self.member_size} bytes")
        self._buf = _zeroed_bytes(total)
        self._buf32 = self._buf.view(np.uint32)
        prefix = template._buf[:template._image_end()]
        for m in range(members):
            base = m * self.member_size
            self._buf[base:base + prefix.size] = prefix
        #: Per-row byte offsets ``(n, 1)`` for the current cohort —
        #: set by the engine before each LDG/STG cohort dispatch.
        self.row_offsets: np.ndarray | None = None
        self.load_count = 0
        self.store_count = 0

    def member_offset(self, member: int) -> int:
        return member * self.member_size

    def member_view(self, member: int) -> "MemberGlobalMemory":
        return MemberGlobalMemory(self, member)

    # -- cohort-stacked access (addrs are (n, 32) member-local) -------------

    def _global_addrs(self, addrs: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
        a = addrs[mask].astype(np.int64)
        if a.size:
            self._check_vec(a, 4)
        off = np.broadcast_to(self.row_offsets, addrs.shape)
        return a + off[mask]

    def load_u32(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(addrs.shape, dtype=np.uint32)
        a = self._global_addrs(addrs, mask)
        if a.size:
            out[mask] = self._buf32[a >> 2]
            self.load_count += a.size
        return out

    def store_u32(self, addrs: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> None:
        a = self._global_addrs(addrs, mask)
        if not a.size:
            return
        self._buf32[a >> 2] = np.broadcast_to(
            values, mask.shape)[mask].astype(np.uint32)
        self.store_count += a.size

    def load_u64(self, addrs: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        low = self.load_u32(addrs, mask)
        high = self.load_u32(addrs + np.uint32(4), mask)
        return low, high

    def store_u64(self, addrs: np.ndarray, low: np.ndarray,
                  high: np.ndarray, mask: np.ndarray) -> None:
        self.store_u32(addrs, low, mask)
        self.store_u32(addrs + np.uint32(4), high, mask)

    def _check_vec(self, addrs: np.ndarray, width: int) -> None:
        lo, hi = int(addrs.min()), int(addrs.max())
        if lo < 0 or hi + width > self.member_size:
            raise IndexError(f"global memory access out of bounds: "
                             f"[{lo:#x}, {hi:#x}]")
        if (addrs % width).any():
            raise ValueError("misaligned global memory access")


class MemberGlobalMemory:
    """One member's fixed-offset view of a :class:`MegaGlobalMemory`.

    Duck-types the :class:`GlobalMemory` access surface (vectorised
    load/store plus host-side ``read_array``/``write_array``) with every
    address translated by the member's partition base, so per-member
    contexts and deferred-replay injections are oblivious to the packed
    layout.
    """

    __slots__ = ("mega", "member", "_base")

    def __init__(self, mega: MegaGlobalMemory, member: int) -> None:
        self.mega = mega
        self.member = member
        self._base = mega.member_offset(member)

    def load_u32(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(addrs.shape, dtype=np.uint32)
        a = addrs[mask].astype(np.int64)
        if a.size:
            self.mega._check_vec(a, 4)
            out[mask] = self.mega._buf32[(a + self._base) >> 2]
            self.mega.load_count += a.size
        return out

    def store_u32(self, addrs: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> None:
        a = addrs[mask].astype(np.int64)
        if not a.size:
            return
        self.mega._check_vec(a, 4)
        self.mega._buf32[(a + self._base) >> 2] = np.broadcast_to(
            values, mask.shape)[mask].astype(np.uint32)
        self.mega.store_count += a.size

    def load_u64(self, addrs: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        low = self.load_u32(addrs, mask)
        high = self.load_u32(addrs + np.uint32(4), mask)
        return low, high

    def store_u64(self, addrs: np.ndarray, low: np.ndarray,
                  high: np.ndarray, mask: np.ndarray) -> None:
        self.store_u32(addrs, low, mask)
        self.store_u32(addrs + np.uint32(4), high, mask)

    def write_array(self, addr: int, arr: np.ndarray) -> None:
        raw = np.ascontiguousarray(arr).view(np.uint8).ravel()
        self._check(addr, raw.nbytes)
        base = self._base + addr
        self.mega._buf[base:base + raw.nbytes] = raw

    def read_array(self, addr: int, dtype: np.dtype,
                   count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self._check(addr, nbytes)
        base = self._base + addr
        return self.mega._buf[base:base + nbytes].view(dtype).copy()

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.mega.member_size:
            raise IndexError(f"global memory access out of bounds: "
                             f"addr={addr:#x} nbytes={nbytes}")


class ConstBanks:
    """SASS constant banks: ``c[bank][byte_offset]`` reads."""

    def __init__(self) -> None:
        self._banks: dict[int, np.ndarray] = {}

    def set_bank(self, bank: int, data: np.ndarray) -> None:
        """Install a bank as raw bytes (accepts any dtype)."""
        self._banks[bank] = np.ascontiguousarray(data).view(np.uint8).ravel().copy()

    def set_params(self, words: list[int], *, bank: int = 0) -> None:
        """Install kernel parameters as u32 words at PARAM_BASE in bank 0."""
        size = PARAM_BASE + 4 * len(words)
        buf = np.zeros(size, dtype=np.uint8)
        arr = np.asarray(words, dtype=np.uint64).astype(np.uint32)
        buf[PARAM_BASE:] = arr.view(np.uint8)
        self._banks[bank] = buf

    def read_u32(self, bank: int, offset: int) -> int:
        """Read one 32-bit word (scalar; broadcast by callers)."""
        buf = self._banks.get(bank)
        if buf is None or offset + 4 > buf.size:
            raise IndexError(f"constant bank read out of bounds: "
                             f"c[{bank:#x}][{offset:#x}]")
        return int(buf[offset:offset + 4].view(np.uint32)[0])

    def read_u64(self, bank: int, offset: int) -> int:
        low = self.read_u32(bank, offset)
        high = self.read_u32(bank, offset + 4)
        return (high << 32) | low


class SharedMemory:
    """Per-block shared memory (LDS/STS target)."""

    def __init__(self, size_bytes: int = 48 * 1024) -> None:
        self.size = size_bytes
        self._buf = np.zeros(size_bytes, dtype=np.uint8)

    def load_u32(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(addrs.shape, dtype=np.uint32)
        if mask.any():
            a = addrs[mask].astype(np.int64)
            if a.size and (int(a.max()) + 4 > self.size or int(a.min()) < 0):
                raise IndexError("shared memory access out of bounds")
            words = self._buf.view(np.uint32)
            out[mask] = words[a // 4]
        return out

    def store_u32(self, addrs: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> None:
        if not mask.any():
            return
        a = addrs[mask].astype(np.int64)
        if a.size and (int(a.max()) + 4 > self.size or int(a.min()) < 0):
            raise IndexError("shared memory access out of bounds")
        words = self._buf.view(np.uint32)
        words[a // 4] = values[mask].astype(np.uint32)
