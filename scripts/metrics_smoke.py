"""CI smoke for the live telemetry plane.

Starts a ``/metrics`` server, runs a 2-worker sweep whose units block
on a filesystem gate after doing real detector work, and proves the
acceptance behaviour end-to-end:

1. a scrape taken while both workers are mid-unit already shows their
   pushed counters and the parent's in-flight gauge (validated with the
   in-repo ``parse_prometheus`` conformance parser, not string grep);
2. ``/healthz`` and ``/flight`` answer sensibly;
3. after the sweep, the live slots are retracted and the merged
   registry shows every unit accounted for.

Exits non-zero (AssertionError) on any violation.

Usage: PYTHONPATH=src python scripts/metrics_smoke.py
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import threading
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.parallel import SweepUnit, run_sweep
from repro.harness.pool import pool_available
from repro.harness.runner import run_detector
from repro.telemetry import (
    MetricsServer,
    parse_prometheus,
    telemetry_session,
)
from repro.telemetry.names import (
    CTR_SWEEP_UNITS_OK,
    GAUGE_SWEEP_INFLIGHT,
)
from repro.telemetry.prom import metric_name
from repro.workloads import program_by_name

UNITS = 2
GATE_TIMEOUT = 60.0


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        assert resp.status == 200, f"{url}: HTTP {resp.status}"
        return resp.read().decode("utf-8")


def _gated_detector(gate: str) -> int:
    report, _stats = run_detector(program_by_name("GRAMSCHM"))
    deadline = time.monotonic() + GATE_TIMEOUT
    while not os.path.exists(gate):
        if time.monotonic() > deadline:
            raise TimeoutError("gate never opened")
        time.sleep(0.05)
    return report.total()


def _unit(gate: str, index: int):
    # A module-level function bound with partial pickles, so the unit
    # runs on the worker pool.
    return SweepUnit(f"smoke/{index}", functools.partial(_gated_detector,
                                                         gate))


def _samples(url: str) -> dict:
    parsed = parse_prometheus(_get(url + "/metrics"))
    return {name: value for name, _labels, value in parsed["samples"]}


def main() -> int:
    if not pool_available():  # pragma: no cover - no multiprocessing
        print("worker pool unavailable; skipping metrics smoke")
        return 0

    detector_metric = metric_name("fpx.exceptions.div0") + "_total"
    inflight_metric = metric_name(GAUGE_SWEEP_INFLIGHT)
    ok_metric = metric_name(CTR_SWEEP_UNITS_OK) + "_total"

    with tempfile.TemporaryDirectory() as tmp, \
            telemetry_session() as tel, \
            MetricsServer(port=0) as server:
        gate = os.path.join(tmp, "go")
        result_box = {}
        sweeper = threading.Thread(target=lambda: result_box.update(
            result=run_sweep([_unit(gate, i) for i in range(UNITS)],
                             jobs=2, retries=0)))
        sweeper.start()
        try:
            # 1. mid-sweep: workers are blocked on the gate *after*
            # running the detector, so their counters must be visible.
            deadline = time.monotonic() + GATE_TIMEOUT
            while True:
                live = _samples(server.url)
                if live.get(detector_metric, 0) >= UNITS and \
                        live.get(inflight_metric, 0) >= 1:
                    break
                assert time.monotonic() < deadline, (
                    f"live view never showed in-flight workers: {live}")
                time.sleep(0.2)
            print(f"mid-sweep scrape ok: {detector_metric}="
                  f"{live[detector_metric]:.0f}, "
                  f"{inflight_metric}={live[inflight_metric]:.0f}")
        finally:
            open(gate, "w").close()
            sweeper.join(timeout=GATE_TIMEOUT)
        assert not sweeper.is_alive(), "sweep hung"

        result = result_box["result"]
        assert result.engine == "pool", result.engine
        values = result.values_strict()
        assert len(values) == UNITS

        # 2. the side routes.
        health = json.loads(_get(server.url + "/healthz"))
        assert health["status"] == "ok" and health["scrapes"] >= 1, health
        flight = json.loads(_get(server.url + "/flight"))
        assert flight, "flight ring empty despite enabled registry"

        # 3. post-sweep: live slots retracted, merged registry final.
        final = _samples(server.url)
        assert final.get(inflight_metric, 0) == 0, final
        assert final.get(ok_metric) == UNITS, final
        assert tel.counters[CTR_SWEEP_UNITS_OK].value == UNITS

    print(f"metrics smoke ok: {UNITS} units, "
          f"{health['scrapes']} scrapes, {len(flight)} flight records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
