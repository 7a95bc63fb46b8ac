"""The job service's two bounded LRU caches.

:class:`ResultCache` is keyed on
:meth:`repro.serve.jobs.JobRequest.cache_key` — (kernel fingerprint,
plan fingerprint, input digest) — so a duplicate submission is served
without re-executing the job.  The simulator is deterministic and all
execution engines are bit-exact, so a cached ``(report payload,
events)`` pair is indistinguishable from a fresh run regardless of
which engine (solo or megabatch-stacked) produced it.  Entries are
handed out by reference: treat them as immutable.

:class:`KernelTable` is keyed on
:meth:`~repro.serve.jobs.JobRequest.kernel_fingerprint` alone, so a
job with new inputs on a known kernel skips assembly, and with it the
memos the runtime keeps on a :class:`~repro.sass.program.KernelCode`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..sass.program import KernelCode

__all__ = ["KERNEL_BUDGET", "KernelTable", "ResultCache"]

#: Static instructions the kernel table holds, summed over its kernels.
#: An assembled kernel with its SASS lines, fingerprint, bare decode and
#: Algorithm-1 selection takes about 1.4 KB per static instruction, so
#: the table stays near 11 MB.
KERNEL_BUDGET = 8192


class ResultCache:
    """Thread-safe LRU of ``key -> (payload, events)``.

    ``size <= 0`` disables caching (every :meth:`get` misses and
    :meth:`put` drops).
    """

    def __init__(self, size: int = 64) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key):
        """The cached ``(payload, events)`` pair, or ``None``."""
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]

    def peek(self, key) -> bool:
        """Whether ``key`` is cached, without touching hit/miss stats
        or recency (the batch collector uses this)."""
        with self._lock:
            return key in self._data

    def put(self, key, payload, events) -> None:
        if self.size <= 0:
            return
        with self._lock:
            self._data[key] = (payload, events)
            self._data.move_to_end(key)
            while len(self._data) > self.size:
                self._data.popitem(last=False)


class KernelTable:
    """LRU of assembled kernels by kernel fingerprint, bounded by
    :data:`KERNEL_BUDGET` static instructions.

    A job on a cached kernel runs the table's :class:`KernelCode`, so
    it reuses every memo the runtime keeps on a code object: SASS
    lines, fingerprint, bare decode, Algorithm-1 selection and shadow
    slots.  Plans, the fused decode, the GT and the site registry stay
    per :class:`~repro.api.Session`.  Not thread-safe: only the
    service's dispatcher thread uses it.
    """

    def __init__(self) -> None:
        #: Static instructions held, at most :data:`KERNEL_BUDGET`.
        self.instructions = 0
        self._codes: OrderedDict[str, KernelCode] = OrderedDict()

    def __len__(self) -> int:
        return len(self._codes)

    def get(self, key: str) -> KernelCode | None:
        code = self._codes.get(key)
        if code is not None:
            self._codes.move_to_end(key)
        return code

    def put(self, key: str, code: KernelCode) -> None:
        """Hold ``code``, evicting the least recently used kernels past
        the budget; a kernel larger than the whole budget is not held."""
        if len(code) > KERNEL_BUDGET:
            return
        self._codes[key] = code
        self.instructions += len(code)
        while self.instructions > KERNEL_BUDGET:
            _, old = self._codes.popitem(last=False)
            self.instructions -= len(old)
