"""Registry snapshot/merge — the worker→parent telemetry protocol.

The parallel sweep engine (:mod:`repro.harness.parallel`) runs each work
unit in a pool worker process under its own fresh
:class:`~repro.telemetry.core.Telemetry`.  Whatever the unit reported —
counters, histograms, spans, structured events — must travel back over a
pipe and fold into the parent registry so that ``--trace``, ``--events``
and ``--metrics`` output from a parallel sweep is indistinguishable from
a serial run.

:func:`snapshot_registry` freezes a registry into a plain picklable
dict (lists, dicts, numbers and strings only — also JSON-safe modulo
non-finite floats); :func:`merge_snapshot` folds such a snapshot into a
live registry:

- **counters** add;
- **gauges** are last-write-wins (in merge order — the sweep merges in
  unit order, so the result matches a serial sweep);
- **histograms** merge per-bucket counts elementwise and combine
  count/total/min/max (a histogram whose bucket boundaries disagree is
  skipped with a warning rather than crashing the merge);
- **spans** are re-materialised and appended.  ``perf_counter`` on
  Linux reads ``CLOCK_MONOTONIC``, which forked children share, so
  worker span timestamps live on the parent's clock and need no
  rebasing;
- **events** are appended with their worker-relative ``ts`` preserved.

Merging is associative over disjoint work and deterministic for a fixed
merge order, which is what lets the sweep reduce results in unit order
regardless of completion order.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading

from .core import Histogram, NullTelemetry, Span, Telemetry
from .names import CTR_MERGE_DROPPED

__all__ = [
    "snapshot_registry",
    "merge_snapshot",
    "IncrementalMerger",
    "publish_live",
    "retract_live",
    "live_contributions",
    "live_view",
]

logger = logging.getLogger(__name__)


def snapshot_registry(tel: Telemetry | NullTelemetry) -> dict:
    """Freeze ``tel`` into a picklable plain-data dict.

    Taken under the registry's write lock (when it has one), so a
    concurrent scrape never sees a dict mid-mutation.  ``pid`` records
    the snapshotting process so merged spans can be attributed to their
    worker lane in trace exports.
    """
    lock = getattr(tel, "_lock", None)
    with lock if lock is not None else contextlib.nullcontext():
        return {
            "pid": os.getpid(),
            "counters": {n: c.value for n, c in tel.counters.items()},
            "gauges": {n: g.value for n, g in tel.gauges.items()},
            "histograms": {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for n, h in tel.histograms.items()
            },
            "spans": [
                {"name": s.name, "t0": s.t0, "t1": s.t1, "depth": s.depth,
                 "attrs": dict(s.attrs)}
                for s in tel.spans
            ],
            "events": [dict(e) for e in tel.events],
        }


def merge_snapshot(tel: Telemetry | NullTelemetry, snap: dict) -> None:
    """Fold one worker snapshot into a live registry.

    A no-op on a disabled registry (whose read-only views must never
    be mutated).
    """
    if not tel.enabled:
        return
    for name, value in snap.get("counters", {}).items():
        tel.count(name, value)
    for name, value in snap.get("gauges", {}).items():
        tel.gauge(name, value)
    for name, data in snap.get("histograms", {}).items():
        _merge_histogram(tel, name, data)
    lane = snap.get("pid")
    own = os.getpid()
    for data in snap.get("spans", ()):
        span = Span(tel, data["name"], dict(data["attrs"]))
        span.t0 = data["t0"]
        span.t1 = data["t1"]
        span.depth = data["depth"]
        if lane is not None and lane != own:
            span.lane = lane
        tel.spans.append(span)
    tel.events.extend(dict(e) for e in snap.get("events", ()))


def _merge_histogram(tel: Telemetry, name: str, data: dict) -> None:
    buckets = tuple(data["buckets"])
    hist = tel.histograms.get(name)
    if hist is None:
        hist = tel.histograms[name] = Histogram(name, buckets)
    if hist.buckets != buckets:
        # A worker built this histogram against different boundaries
        # (version skew, a reconfigured registry).  Dropping the one
        # incompatible histogram beats crashing the whole sweep merge,
        # but the loss is recorded: telemetry.merge.dropped counts every
        # discarded observation (surfaced by ``telemetry summarize``).
        logger.warning(
            "histogram %r: bucket mismatch (%s vs %s); skipping merge",
            name, hist.buckets, buckets)
        tel.count(CTR_MERGE_DROPPED, int(data.get("count", 0)))
        return
    for i, n in enumerate(data["counts"]):
        hist.counts[i] += n
    hist.count += data["count"]
    hist.total += data["total"]
    hist.min = min(hist.min, data["min"])
    hist.max = max(hist.max, data["max"])


class IncrementalMerger:
    """Stream out-of-order snapshots into an *in-order* merge.

    The deterministic contract of the parallel sweep is that worker
    snapshots fold into the parent registry **in unit-submission order**
    — that is what makes ``jobs=1/2/4`` output byte-identical.  The old
    engine guaranteed this with an end-of-sweep barrier: hold every
    snapshot until all units finish, then merge 0..n-1.  This class
    keeps the same order guarantee without the barrier: offer each
    unit's snapshot as it completes, and the merger folds the contiguous
    frontier (0, 1, 2, ...) the moment it becomes contiguous, parking
    only the out-of-order tail.  Merge order — and therefore the final
    registry — is identical to the barrier version; only the *timing*
    changes, which is what lets live ``/metrics`` contributions retire
    into the real registry mid-sweep.

    ``offer`` returns the indices merged by that call (possibly empty,
    possibly several), so the caller can retire per-unit live slots as
    their data reaches the registry.  ``None`` snapshots (failed or
    capture-less units) still advance the frontier.
    """

    def __init__(self, tel: Telemetry | NullTelemetry) -> None:
        self._tel = tel
        self._parked: dict[int, dict | None] = {}
        self._next = 0

    @property
    def frontier(self) -> int:
        """The first index not yet merged."""
        return self._next

    @property
    def parked(self) -> int:
        """Snapshots held waiting for an earlier unit to finish."""
        return len(self._parked)

    def offer(self, index: int, snap: dict | None) -> list[int]:
        """Hand over unit ``index``'s snapshot; merge what is now due."""
        if index < self._next or index in self._parked:
            raise ValueError(f"unit {index} offered twice")
        self._parked[index] = snap
        merged = []
        while self._next in self._parked:
            due = self._parked.pop(self._next)
            if due:
                merge_snapshot(self._tel, due)
            merged.append(self._next)
            self._next += 1
        return merged


# -- the live view ---------------------------------------------------------
#
# The deterministic fan-in above happens once, at sweep end, in unit
# order — that is what keeps parallel output byte-identical to serial.
# A live ``/metrics`` scrape cannot wait for it, so in-flight progress
# travels on a side channel: the sweep (and its workers, via
# ``("progress", snap)`` pipe messages) publishes per-slot snapshot
# *contributions* here, and the exposition server folds them into a
# throwaway registry per scrape.  Contributions are retracted as their
# data reaches the real registry, so nothing is ever double-counted.

_live_lock = threading.Lock()
_live: dict[str, dict] = {}


def publish_live(slot: str, snap: dict) -> None:
    """Install/replace one slot's live snapshot contribution."""
    with _live_lock:
        _live[slot] = snap


def retract_live(slot: str | None = None) -> None:
    """Remove one slot's contribution (or all of them)."""
    with _live_lock:
        if slot is None:
            _live.clear()
        else:
            _live.pop(slot, None)


def live_contributions() -> dict[str, dict]:
    """A point-in-time copy of every live contribution, by slot."""
    with _live_lock:
        return dict(_live)


def live_view(tel: Telemetry | NullTelemetry | None = None) -> Telemetry:
    """One merged throwaway registry: ``tel`` plus live contributions.

    This is what the ``/metrics`` endpoint renders — the parent's own
    registry (when enabled) with every in-flight worker contribution
    folded on top.
    """
    view = Telemetry()
    if tel is None:
        from .core import get_telemetry
        tel = get_telemetry()
    if tel.enabled:
        merge_snapshot(view, snapshot_registry(tel))
    for _slot, snap in sorted(live_contributions().items()):
        merge_snapshot(view, snap)
    return view
