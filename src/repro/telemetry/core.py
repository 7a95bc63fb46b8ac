"""The process-wide telemetry registry and its zero-cost null twin.

Telemetry is the observability substrate the ROADMAP's production goal
needs: every layer of the simulator → NVBit → FPX pipeline reports into
one process-wide :class:`Telemetry` instance — counters, gauges,
histograms (Figure-4-style buckets), wall-time spans with modeled-cycle
annotations, and structured events (the §5 provenance records).

Instrumented call sites never test whether telemetry is on.  The active
instance defaults to :data:`NULL_TELEMETRY`, whose every method is a
no-op and whose ``span`` returns a shared do-nothing context manager, so
a disabled run pays one attribute lookup per call site and allocates
nothing.  Enabling telemetry is swapping the active instance::

    with telemetry_session() as tel:
        run_detector(program)
    write_chrome_trace(tel, "trace.json")
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .flight import KIND_COUNTER, KIND_EVENT, KIND_SPAN, FlightRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullSpan",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Span",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
]


def _figure4_buckets() -> tuple[float, ...]:
    # Imported lazily: repro.harness imports modules that themselves
    # import repro.telemetry, so a module-level import would cycle.
    from ..harness.stats import BUCKETS
    return BUCKETS


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def add(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Bucketed observations, defaulting to Figure 4's slowdown buckets.

    Tracks per-bucket counts (``counts[i]`` holds observations below
    ``buckets[i]`` and at/above ``buckets[i-1]``) plus count/sum/min/max
    so summaries can report means without keeping raw samples.
    """

    name: str
    buckets: tuple[float, ...] = ()
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.buckets:
            self.buckets = _figure4_buckets()
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, hi in enumerate(self.buckets):
            if value < hi:
                self.counts[i] += 1
                return

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def labelled_counts(self) -> list[tuple[str, int]]:
        """(bucket label, count) pairs in Figure-4 rendering order."""
        from ..harness.stats import bucket_label
        if self.buckets == _figure4_buckets():
            labels = [bucket_label(i) for i in range(len(self.buckets))]
        else:
            labels = []
            lo = 0.0
            for hi in self.buckets:
                labels.append(f">={lo:g}" if math.isinf(hi)
                              else f"[{lo:g}, {hi:g})")
                lo = hi
        return list(zip(labels, self.counts))


class Span:
    """One timed region: wall time from ``perf_counter`` plus arbitrary
    attributes (modeled cycles, dynamic counts, ...) set at close."""

    __slots__ = ("name", "attrs", "t0", "t1", "depth", "lane", "_tel")

    def __init__(self, tel: "Telemetry | None", name: str,
                 attrs: dict) -> None:
        self._tel = tel
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0
        self.depth = 0
        #: Originating worker pid for spans merged from a sweep snapshot
        #: (None for spans recorded in this process) — the trace
        #: exporter's lane key.
        self.lane: int | None = None

    def set(self, **attrs) -> None:
        """Attach attributes (e.g. ``cycles=...``) to this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tel = self._tel
        self.depth = len(tel._stack)
        tel._stack.append(self)
        self.t0 = tel.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._tel
        self.t1 = tel.clock()
        tel._stack.pop()
        with tel._lock:
            tel.spans.append(self)
        tel.flight.note(KIND_SPAN, self.name,
                        dur=round(self.t1 - self.t0, 6), depth=self.depth)
        # A recorded span must not point back at the registry that holds
        # it, or the registry dies only by the cyclic collector.
        self._tel = None
        return False

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Telemetry:
    """The enabled registry: everything instrumented code reports into.

    Writes are guarded by an internal re-entrant lock and the span stack
    is thread-local, so Sessions on worker threads and the metrics
    server's scrape thread can share one registry without losing updates
    or corrupting nesting.  The flight recorder rides along: every
    counter delta, span close and event also lands in ``self.flight``.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.epoch = clock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        #: finished spans, in close order
        self.spans: list[Span] = []
        #: structured events, in emit order
        self.events: list[dict] = []
        #: the always-on last-moments ring (see telemetry.flight)
        self.flight = FlightRecorder(clock=clock)
        self._lock = threading.RLock()
        self._local = threading.local()

    @property
    def _stack(self) -> list:
        """The *calling thread's* open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            counter = self.counters.get(name)
            if counter is None:
                counter = self.counters[name] = Counter(name)
            counter.add(n)
            value = counter.value
        self.flight.note(KIND_COUNTER, name, n=n, value=value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            gauge = self.gauges.get(name)
            if gauge is None:
                gauge = self.gauges[name] = Gauge(name)
            gauge.set(value)

    def histogram(self, name: str, value: float,
                  buckets: tuple[float, ...] = ()) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(name, buckets)
            hist.observe(value)

    # -- tracing ---------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a timed region; use as a context manager."""
        return Span(self, name, attrs)

    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- structured events ----------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Record one structured event (a JSONL line when exported)."""
        with self._lock:
            self.events.append(
                {"ts": self.clock() - self.epoch, "event": name, **fields})
        self.flight.note(KIND_EVENT, name, **fields)

    def events_named(self, name: str) -> list[dict]:
        with self._lock:
            return [e for e in self.events if e["event"] == name]


class NullSpan:
    """The shared do-nothing span; safe to nest and re-enter."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    duration = 0.0

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()

_EMPTY_DICT: dict = {}
_EMPTY_LIST: list = []


class NullTelemetry:
    """The disabled registry: every operation is a no-op.

    Exposes the same read surface as :class:`Telemetry` (always empty)
    so exporters and tests can treat the two uniformly.
    """

    enabled = False
    counters = _EMPTY_DICT
    gauges = _EMPTY_DICT
    histograms = _EMPTY_DICT
    spans = _EMPTY_LIST
    events = _EMPTY_LIST
    epoch = 0.0
    #: No recorder: the null registry must stay allocation-free.
    flight = None

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float,
                  buckets: tuple[float, ...] = ()) -> None:
        pass

    def span(self, name: str, **attrs) -> NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def event(self, name: str, **fields) -> None:
        pass

    def events_named(self, name: str) -> list[dict]:
        return []


NULL_TELEMETRY = NullTelemetry()

_active: Telemetry | NullTelemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry | NullTelemetry:
    """The process-wide active telemetry (the null one by default)."""
    return _active


def set_telemetry(tel: Telemetry | NullTelemetry) -> Telemetry | NullTelemetry:
    """Install ``tel`` as the active instance; returns the previous one."""
    global _active
    previous = _active
    _active = tel
    return previous


def telemetry_session(tel: Telemetry | None = None) -> Iterator[Telemetry]:
    """Context manager: activate a (new) Telemetry, restore on exit."""
    return _TelemetrySession(tel or Telemetry())


class _TelemetrySession:
    def __init__(self, tel: Telemetry) -> None:
        self.tel = tel
        self._previous: Telemetry | NullTelemetry | None = None

    def __enter__(self) -> Telemetry:
        self._previous = set_telemetry(self.tel)
        return self.tel

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_telemetry(self._previous)
        return False
