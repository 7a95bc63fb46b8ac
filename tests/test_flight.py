"""Flight recorder: ring semantics, spill files, registry feed, and the
sweep's ship-the-ring-home path for killed workers."""

import json
import os

import pytest

from repro.harness.parallel import (
    FAIL_CRASH,
    SweepError,
    SweepUnit,
    run_sweep,
)
from repro.telemetry import Telemetry, telemetry_session
from repro.telemetry.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    load_spill,
    render_flight,
)


class TestRing:
    def test_capacity_keeps_newest(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.note("counter", f"c{i}", n=1)
        snap = fr.snapshot()
        assert len(snap) == 4
        assert [r["name"] for r in snap] == ["c6", "c7", "c8", "c9"]
        assert fr.recorded == 10
        assert fr.dropped == 6

    def test_records_are_copies_and_ordered(self):
        fr = FlightRecorder(capacity=8)
        fr.note("event", "a", x=1)
        fr.note("span", "b", dur=0.5)
        snap = fr.snapshot()
        snap[0]["x"] = 999
        assert fr.snapshot()[0]["x"] == 1
        assert snap[0]["ts"] <= snap[1]["ts"]

    def test_reserved_keys_win_over_fields(self):
        fr = FlightRecorder()
        fr.note("event", "failure", kind="crash", name="other")
        rec = fr.snapshot()[0]
        assert rec["kind"] == "event"
        assert rec["name"] == "failure"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear(self):
        fr = FlightRecorder()
        fr.note("event", "x")
        fr.clear()
        assert fr.snapshot() == []


class TestRegistryFeed:
    def test_counters_spans_events_all_land(self):
        tel = Telemetry()
        tel.count("c", 3)
        with tel.span("s"):
            pass
        tel.event("e", detail=1)
        kinds = [r["kind"] for r in tel.flight.snapshot()]
        assert kinds == ["counter", "span", "event"]
        counter = tel.flight.snapshot()[0]
        assert counter["n"] == 3 and counter["value"] == 3

    def test_null_registry_has_no_recorder(self):
        from repro.telemetry import NULL_TELEMETRY
        assert NULL_TELEMETRY.flight is None


class TestSpill:
    def test_spill_mirrors_and_truncates(self, tmp_path):
        path = str(tmp_path / "flight.jsonl")
        fr = FlightRecorder()
        fr.spill_to(path)
        fr.note("event", "first")
        fr.spill_to(path)  # per-unit truncate
        fr.note("event", "second")
        fr.close_spill()
        records = load_spill(path)
        assert [r["name"] for r in records] == ["second"]

    def test_load_spill_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(json.dumps({"name": "whole", "kind": "event"})
                        + "\n" + '{"name": "to')
        records = load_spill(str(path))
        assert [r["name"] for r in records] == ["whole"]

    def test_load_spill_missing_file(self, tmp_path):
        assert load_spill(str(tmp_path / "nope.jsonl")) == []

    def test_load_spill_honors_limit(self, tmp_path):
        path = str(tmp_path / "many.jsonl")
        fr = FlightRecorder()
        fr.spill_to(path)
        for i in range(DEFAULT_CAPACITY + 50):
            fr.note("counter", f"c{i}")
        fr.close_spill()
        records = load_spill(path, limit=10)
        assert len(records) == 10
        assert records[-1]["name"] == f"c{DEFAULT_CAPACITY + 49}"


class TestRender:
    def test_render_lines(self):
        fr = FlightRecorder()
        fr.note("counter", "sweep.units.ok", n=1, value=4)
        text = render_flight(fr.snapshot())
        assert "sweep.units.ok" in text
        assert "n=1" in text and "value=4" in text


def _noisy_then_die():
    from repro.telemetry import get_telemetry
    tel = get_telemetry()
    tel.count("unit.progress", 7)
    tel.event("unit.checkpoint", step="about-to-die")
    os._exit(42)  # simulates a SIGKILL/OOM: no cleanup, no exception


def _fine():
    return "ok"


def _note_then_raise():
    from repro.telemetry import get_telemetry
    get_telemetry().event("before.boom")
    raise RuntimeError("boom")


class TestSweepFlightShipping:
    def test_killed_worker_ships_its_ring(self):
        units = [SweepUnit("calm", _fine),
                 SweepUnit("doomed", _noisy_then_die)]
        result = run_sweep(units, jobs=2, retries=0)
        assert result.engine == "pool"
        doomed = result.outcomes[1]
        assert not doomed.ok
        assert doomed.failure.kind == FAIL_CRASH
        names = [r.get("name") for r in doomed.flight]
        assert "unit.progress" in names
        assert "unit.checkpoint" in names
        checkpoint = next(r for r in doomed.flight
                          if r.get("name") == "unit.checkpoint")
        assert checkpoint["step"] == "about-to-die"

    def test_flight_reaches_failure_event_and_error(self):
        # two units: a single unit would take the in-process serial path
        units = [SweepUnit("calm", _fine),
                 SweepUnit("doomed", _noisy_then_die)]
        with telemetry_session() as tel:
            result = run_sweep(units, jobs=2, retries=0)
        events = tel.events_named("sweep.unit_failed")
        assert len(events) == 1
        assert any(r.get("name") == "unit.checkpoint"
                   for r in events[0]["flight"])
        with pytest.raises(SweepError) as exc_info:
            result.values_strict()
        assert "flight-recorder" in str(exc_info.value)

    def test_in_process_error_ships_ring_too(self):
        # The unit raises inside a live worker (the worker survives).
        units = [SweepUnit("calm", _fine),
                 SweepUnit("boom", _note_then_raise)]
        result = run_sweep(units, jobs=2, retries=0)
        assert result.engine == "pool"
        outcome = result.outcomes[1]
        assert not outcome.ok
        assert any(r.get("name") == "before.boom"
                   for r in outcome.flight)
