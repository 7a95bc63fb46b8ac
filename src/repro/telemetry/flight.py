"""Flight recorder: a fixed-size ring of the last telemetry moments.

A crashed sweep worker, a hung kernel, an executor blow-up — the
question is always "what was it doing in the last few seconds?".  The
:class:`FlightRecorder` answers it the way an aircraft black box does:
an always-on, fixed-capacity ring buffer fed by the enabled
:class:`~repro.telemetry.core.Telemetry` registry with one compact
record per counter delta, span close and structured event.  Cost is one
dict and one ``deque.append`` per record, and nothing at all when
telemetry is disabled (the null registry feeds no recorder).

Two read paths:

- :meth:`FlightRecorder.snapshot` — the in-process view, served by the
  ``/flight`` endpoint and attached to in-process unit failures;
- **spill files** — :meth:`FlightRecorder.spill_to` mirrors every
  record to a memory-mapped ring journal (:class:`_RingSpill`), so a
  worker that is SIGKILL'd/OOM-killed mid-unit still leaves its last
  seconds on disk for the parent to recover with :func:`load_spill`
  (tolerant of a torn final record — the kill can land mid-write).

The spill is a fixed-size mmap ring of length-prefixed pickles: one
~1µs memcpy per record, no syscalls, no unbounded file growth, and mmap
pages survive SIGKILL.  (It replaced a line-buffered JSONL mirror whose
``json.dumps`` + ``write(2)`` per record dominated the warm worker
pool's overhead.)
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import time
from collections import deque
from threading import Lock
from typing import Callable

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "load_spill",
    "render_flight",
]

#: Ring capacity: enough for the last few seconds of a unit (spans close
#: per launch/drain, counters flush per launch) without ever mattering
#: for memory.
DEFAULT_CAPACITY = 256

#: Record kinds.
KIND_COUNTER = "counter"
KIND_SPAN = "span"
KIND_EVENT = "event"

#: Ring-spill file layout: magic, then three u64 header fields
#: (write cursor, oldest live record offset, live record count), then
#: the data region of ``[u32 length][pickle bytes]`` records.
_SPILL_MAGIC = b"FPXRING1"
_SPILL_HEADER = struct.Struct("<8sQQQ")
#: A length prefix of all-ones marks "rest of the ring is a wrap gap".
_SPILL_SKIP = 0xFFFFFFFF
_SPILL_LEN = struct.Struct("<I")
DEFAULT_SPILL_BYTES = int(os.environ.get("REPRO_SPILL_BYTES", 1 << 18))


class _RingSpill:
    """A crash-durable flight mirror: an mmap'd ring of pickled records.

    Writes go payload-last — the header claims the region (evicting
    overwritten records and advancing the cursor) *before* the record
    bytes land — so a SIGKILL mid-write leaves a header that points at
    one torn record at the newest end, which :func:`load_spill` drops,
    never a corrupt walk.
    """

    __slots__ = ("_fh", "_mm", "_capacity", "_cursor", "_live")

    def __init__(self, path: str,
                 capacity: int = DEFAULT_SPILL_BYTES) -> None:
        capacity = max(capacity, 4096)
        with open(path, "wb") as fh:
            fh.truncate(_SPILL_HEADER.size + capacity)
        self._fh = open(path, "r+b")
        self._mm = mmap.mmap(self._fh.fileno(),
                             _SPILL_HEADER.size + capacity)
        self._capacity = capacity
        self._cursor = 0
        self._live: deque[tuple[int, int]] = deque()  # (offset, size)
        self._write_header()

    def _write_header(self) -> None:
        oldest = self._live[0][0] if self._live else 0
        _SPILL_HEADER.pack_into(self._mm, 0, _SPILL_MAGIC, self._cursor,
                                oldest, len(self._live))

    def append(self, rec: dict) -> None:
        try:
            payload = pickle.dumps(rec, protocol=5)
        except Exception:  # exotic span attr: degrade like json default=
            payload = pickle.dumps(
                {k: v if isinstance(v, (str, int, float, bool,
                                        type(None))) else repr(v)
                 for k, v in rec.items()}, protocol=5)
        need = _SPILL_LEN.size + len(payload)
        if need > self._capacity:  # pragma: no cover - absurd record
            return
        if self._cursor + need > self._capacity:
            # wrap: the tail gap [cursor, capacity) becomes dead space;
            # any previous-lap survivors there are the oldest records
            while self._live and self._live[0][0] >= self._cursor:
                self._live.popleft()
            if self._cursor + _SPILL_LEN.size <= self._capacity:
                _SPILL_LEN.pack_into(self._mm,
                                     _SPILL_HEADER.size + self._cursor,
                                     _SPILL_SKIP)
            self._cursor = 0
        start = self._cursor
        end = start + need
        while self._live and start <= self._live[0][0] < end:
            self._live.popleft()  # evict what this write overwrites
        self._live.append((start, need))
        self._cursor = end
        self._write_header()  # claim first: a torn payload is droppable
        base = _SPILL_HEADER.size + start
        _SPILL_LEN.pack_into(self._mm, base, len(payload))
        self._mm[base + _SPILL_LEN.size:base + need] = payload

    def close(self) -> None:
        try:
            self._mm.close()
            self._fh.close()
        except OSError:  # pragma: no cover - close on a dead disk
            pass


class FlightRecorder:
    """Fixed-capacity ring of ``{"ts", "kind", "name", ...}`` records."""

    __slots__ = ("capacity", "recorded", "clock", "epoch",
                 "_ring", "_spill", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.clock = clock
        self.epoch = clock()
        #: Total records ever pushed (``recorded - len(ring)`` fell off).
        self.recorded = 0
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._spill: _RingSpill | None = None
        self._lock = Lock()

    # -- write side -------------------------------------------------------

    def note(self, kind: str, name: str, /, **fields) -> None:
        """Append one record; mirrors to the spill file when attached.

        ``kind``/``name`` are positional-only so event fields named
        ``kind`` or ``name`` (e.g. a failure record's kind) never
        collide with them.
        """
        rec = dict(fields) if fields else {}
        # Reserved keys win over same-named fields: the record must stay
        # classifiable even when an event carries its own "kind".
        rec["ts"] = round(self.clock() - self.epoch, 6)
        rec["kind"] = kind
        rec["name"] = name
        with self._lock:
            self._ring.append(rec)
            self.recorded += 1
            spill = self._spill
            if spill is not None:
                try:
                    spill.append(rec)
                except (OSError, ValueError):  # dead disk: stop spilling
                    self._spill = None

    # -- read side --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records that have fallen off the ring."""
        return max(0, self.recorded - self.capacity)

    def snapshot(self) -> list[dict]:
        """The ring's current contents, oldest first (copies)."""
        with self._lock:
            return [dict(r) for r in self._ring]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- spill files ------------------------------------------------------

    def spill_to(self, path: str) -> None:
        """Mirror every subsequent record to ``path`` (truncates it).

        The mirror is an mmap'd ring journal: each record lands in the
        page cache as a plain memory write, so a SIGKILL between
        records loses nothing and a kill mid-record tears at most the
        final record (which :func:`load_spill` drops).
        """
        self.close_spill()
        self._spill = _RingSpill(path)

    def close_spill(self) -> None:
        with self._lock:
            spill, self._spill = self._spill, None
        if spill is not None:
            spill.close()


def load_spill(path: str, limit: int = DEFAULT_CAPACITY) -> list[dict]:
    """The last ``limit`` records of a ring-journal spill file, oldest
    first.

    The torn newest record of a killed process is dropped; a missing,
    empty or foreign file is just an empty flight.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return []
    if not blob.startswith(_SPILL_MAGIC):
        return []
    return _load_ring(blob)[-limit:]


def _load_ring(blob: bytes) -> list[dict]:
    try:
        _, _, oldest, count = _SPILL_HEADER.unpack_from(blob, 0)
    except struct.error:
        return []
    data = blob[_SPILL_HEADER.size:]
    records: list[dict] = []
    off = oldest
    wrapped = False
    while len(records) < count:
        if off + _SPILL_LEN.size > len(data):
            if wrapped:  # corrupt header: refuse to loop forever
                break
            off, wrapped = 0, True
            continue
        (size,) = _SPILL_LEN.unpack_from(data, off)
        if size == _SPILL_SKIP:
            if wrapped:
                break
            off, wrapped = 0, True
            continue
        start = off + _SPILL_LEN.size
        if size == 0 or start + size > len(data):
            break  # the claimed-but-unwritten newest record
        try:
            rec = pickle.loads(data[start:start + size])
        except Exception:
            break  # torn newest record: drop it and stop the walk
        if isinstance(rec, dict):
            records.append(rec)
        off = start + size
    return records


def render_flight(records: list[dict], limit: int | None = None) -> str:
    """Human-readable flight lines, for failure diagnostics."""
    if limit is not None:
        records = records[-limit:]
    lines = []
    for rec in records:
        extra = {k: v for k, v in rec.items()
                 if k not in ("ts", "kind", "name")}
        detail = " ".join(f"{k}={v}" for k, v in extra.items())
        lines.append(f"  {rec.get('ts', 0.0):>10.6f}  "
                     f"{rec.get('kind', '?'):<7} {rec.get('name', '?')}"
                     + (f"  {detail}" if detail else ""))
    return "\n".join(lines)
