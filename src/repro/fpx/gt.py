"""The global table *GT* (§3.1.2).

GT lives in GPU global memory and deduplicates exception records before
they cross the GPU→CPU channel: the key is the 20-bit packed record
(⟨E_exce, E_loc, E_fp⟩, Figure 3) and the value is a 32-bit occurred flag
("Given that the smallest GPU memory access size is 32 bits, we utilize a
32-bit integer for value storage").  The full table is 2^20 × 4 B = 4 MB.

Besides the occurred flag we also keep an occurrence counter per key —
the paper notes "a complete record of all exceptions is available in GT
for detailed analysis after the GPU program terminates".

The 4 MB allocation and its zeroing remain a modeled device cost
(:attr:`GlobalTable.SIZE_BYTES`, charged once per context as
``gt_alloc_cycles``).  The host stores only the keys a run touched: a
key is flagged exactly when it has an entry in one key → count map, so
creating, scanning and clearing the table cost nothing per untouched
slot.
"""

from __future__ import annotations

from .records import DecodedRecord, RECORD_SPACE, decode_record

__all__ = ["GlobalTable"]


class GlobalTable:
    """The 4 MB dedup table, plus post-mortem occurrence counts."""

    #: Size of the device allocation this table models.
    SIZE_BYTES = RECORD_SPACE * 4

    def __init__(self) -> None:
        #: key → occurrence count; present exactly when the flag is set.
        self._counts: dict[int, int] = {}

    def test_and_set(self, key: int, count: int = 1) -> bool:
        """Record ``count`` occurrences of ``key``; True when the key is
        new (its record must be sent)."""
        if not 0 <= key < RECORD_SPACE:
            raise IndexError(f"GT key {key} outside [0, {RECORD_SPACE})")
        prev = self._counts.get(key)
        if prev is None:
            self._counts[key] = count
            return True
        self._counts[key] = prev + count
        return False

    def seen(self, key: int) -> bool:
        return key in self._counts

    def occurrences(self, key: int) -> int:
        return self._counts.get(key, 0)

    def recorded_keys(self) -> list[int]:
        """All keys that occurred at least once, ascending (post-mortem
        analysis)."""
        return sorted(self._counts)

    def recorded(self) -> list[DecodedRecord]:
        return [decode_record(k) for k in self.recorded_keys()]

    def clear(self) -> None:
        self._counts.clear()
