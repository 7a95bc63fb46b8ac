"""The /metrics endpoint: routes, live in-flight sweep view, file source.

The acceptance-critical case lives in :class:`TestLiveSweepView`: while a
``jobs=2`` sweep is blocked mid-unit, a scrape must already show the
workers' counters (pushed by the progress ticker) and the parent's
in-flight gauge — and a scrape after the sweep must show the live slots
retracted again.
"""

import functools
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.parallel import SweepUnit, run_sweep
from repro.harness.pool import pool_available
from repro.telemetry import (
    FileSnapshotSource,
    MetricsServer,
    Telemetry,
    get_telemetry,
    parse_prometheus,
    telemetry_session,
    write_snapshot_jsonl,
)
from repro.telemetry.names import CTR_SERVER_SCRAPES, GAUGE_SWEEP_INFLIGHT
from repro.telemetry.prom import metric_name
from repro.telemetry.server import any_active

needs_pool = pytest.mark.skipif(not pool_available(),
                                reason="worker pool unavailable")


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


@pytest.fixture
def server():
    srv = MetricsServer(port=0)
    with srv:
        yield srv


class TestRoutes:
    def test_metrics_is_valid_exposition(self, server):
        with telemetry_session() as tel:
            tel.count("route.check", 2)
            status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        parsed = parse_prometheus(body)
        samples = {name: v for name, _, v in parsed["samples"]}
        assert samples[metric_name("route.check") + "_total"] == 2

    def test_scrapes_counted_in_registry_and_health(self, server):
        with telemetry_session() as tel:
            _get(server.url + "/metrics")
            _get(server.url + "/metrics")
            assert tel.counters[CTR_SERVER_SCRAPES].value == 2
        assert server.scrapes >= 2
        _, _, body = _get(server.url + "/healthz")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["scrapes"] >= 2
        assert health["uptime_seconds"] >= 0

    def test_flight_serves_active_ring(self, server):
        with telemetry_session() as tel:
            tel.event("flight.probe", detail=7)
            _, ctype, body = _get(server.url + "/flight")
        assert ctype == "application/json"
        records = json.loads(body)
        assert any(r.get("name") == "flight.probe" for r in records)

    def test_flight_empty_when_disabled(self, server):
        _, _, body = _get(server.url + "/flight")
        assert json.loads(body) == []

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url + "/nope")
        assert exc_info.value.code == 404

    def test_port_zero_resolves_and_any_active_tracks(self):
        assert not any_active()
        srv = MetricsServer(port=0).start()
        try:
            assert srv.port != 0
            assert any_active()
        finally:
            srv.stop()
        assert not any_active()


class TestMount:
    def test_mount_activates_without_binding(self):
        assert not any_active()
        srv = MetricsServer().mount()
        try:
            assert any_active()
            assert srv._httpd is None  # no socket was bound
            # a second mount (or a start-after-mount guard) is a no-op
            assert srv.mount() is srv
        finally:
            srv.stop()
        assert not any_active()

    def test_respond_serves_routes_shared_handler_style(self):
        srv = MetricsServer().mount()
        try:
            with telemetry_session() as tel:
                tel.count("mount.check", 4)
                status, ctype, body = srv.respond("/metrics")
                assert status == 200 and ctype.startswith("text/plain")
                samples = {n: v for n, _, v
                           in parse_prometheus(body)["samples"]}
                assert samples[metric_name("mount.check") + "_total"] == 4
                assert tel.counters[CTR_SERVER_SCRAPES].value == 1
            status, ctype, body = srv.respond("/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, _, body = srv.respond("/flight")
            assert status == 200 and json.loads(body) == []
            # paths the server does not own are the host's problem
            assert srv.respond("/v1/jobs") is None
        finally:
            srv.stop()


class TestFileSnapshotSource:
    def test_serves_snapshot_file(self, tmp_path, server):
        path = str(tmp_path / "snaps.jsonl")
        tel = Telemetry()
        tel.count("file.runs", 3)
        write_snapshot_jsonl(tel, path)
        tel2 = Telemetry()
        tel2.count("file.runs", 2)
        write_snapshot_jsonl(tel2, path)

        src = MetricsServer(FileSnapshotSource(path), port=0).start()
        try:
            _, _, body = _get(src.url + "/metrics")
            samples = {n: v for n, _, v in parse_prometheus(body)["samples"]}
            # both appended snapshots fold into one view
            assert samples[metric_name("file.runs") + "_total"] == 5
        finally:
            src.stop()

    def test_missing_file_serves_empty(self, tmp_path):
        src = FileSnapshotSource(str(tmp_path / "never.jsonl"))
        assert src().counters == {}

    def test_torn_line_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        tel = Telemetry()
        tel.count("ok.lines", 1)
        write_snapshot_jsonl(tel, str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"counters": {"half')
        view = FileSnapshotSource(str(path))()
        assert view.counters["ok.lines"].value == 1


def _count_then_wait(gate_path, marker):
    get_telemetry().count("unit.live.marker", marker)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(gate_path):
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            raise TimeoutError("gate never opened")
        time.sleep(0.02)
    return marker


def _blocking_unit(gate_path, marker):
    return SweepUnit(f"live/{marker}",
                     functools.partial(_count_then_wait, gate_path, marker))


@needs_pool
class TestLiveSweepView:
    def _scrape_until(self, url, predicate, timeout=15.0):
        deadline = time.monotonic() + timeout
        body = ""
        while time.monotonic() < deadline:
            _, _, body = _get(url + "/metrics")
            samples = {n: v for n, _, v
                       in parse_prometheus(body)["samples"]}
            if predicate(samples):
                return samples
            time.sleep(0.1)
        raise AssertionError(f"live view never converged; last:\n{body}")

    def test_midsweep_scrape_sees_worker_counters(self, tmp_path):
        """A scrape during a jobs=2 sweep reflects in-flight progress."""
        gate = str(tmp_path / "go")
        units = [_blocking_unit(gate, 1), _blocking_unit(gate, 2)]
        marker_metric = metric_name("unit.live.marker") + "_total"
        inflight_metric = metric_name(GAUGE_SWEEP_INFLIGHT)
        result = {}

        with MetricsServer(port=0) as srv:
            worker = threading.Thread(
                target=lambda: result.update(
                    sweep=run_sweep(units, jobs=2, retries=0)))
            worker.start()
            try:
                # both units are still *blocked* on the gate when this
                # converges: their counters came over the progress pipe.
                samples = self._scrape_until(
                    srv.url, lambda s: s.get(marker_metric) == 3
                    and s.get(inflight_metric, 0) >= 1)
                assert samples[marker_metric] == 3
            finally:
                open(gate, "w").close()
                worker.join(timeout=30.0)
            assert not worker.is_alive()
            assert result["sweep"].engine == "pool"
            assert result["sweep"].values_strict() == [1, 2]
            # sweep done: live slots retracted, nothing lingers (the
            # registry is disabled, so the merged result went nowhere)
            _, _, body = _get(srv.url + "/metrics")
            after = {n: v for n, _, v in parse_prometheus(body)["samples"]}
            assert marker_metric not in after
            assert after.get(inflight_metric, 0) == 0

    def test_merged_result_not_double_counted(self, tmp_path):
        """With the registry enabled AND a server attached, the final
        merge equals a serial run: live contributions are retracted
        before the unit-order merge lands."""
        gate = str(tmp_path / "go")
        open(gate, "w").close()  # gate already open: units run through
        units = lambda: [_blocking_unit(gate, 1), _blocking_unit(gate, 2)]

        with telemetry_session() as serial_tel:
            run_sweep(units(), jobs=1)
        serial = serial_tel.counters["unit.live.marker"].value

        with MetricsServer(port=0):
            with telemetry_session() as par_tel:
                assert run_sweep(units(), jobs=2).engine == "pool"
        assert par_tel.counters["unit.live.marker"].value == serial == 3
