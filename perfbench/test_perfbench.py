"""Self-test of the benchmark (not part of the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import eval_wl, run, serve_wl, sweep_wl  # noqa: E402
from perfbench.common import Op, tail  # noqa: E402


def test_two_seeds_measure_the_same_op_multiset():
    for module in (eval_wl, sweep_wl):
        a, b = module.op_keys(1, 20), module.op_keys(2, 20)
        assert a != b, "the seed must permute the op order"
        assert sorted(a) == sorted(b)
    kinds = [sorted(ev.kind for ev in serve_wl.events_for(seed, 20)
                    for _ in ev.jobs) for seed in (1, 2)]
    assert kinds[0] == kinds[1]


def test_serve_trace_spans_a_fixed_time_and_resubmits_near():
    span = (serve_wl.blocks_for(20) * serve_wl.BLOCK_EVENTS
            / serve_wl.EVENTS_PER_S)
    for seed in (1, 2):
        events = serve_wl.events_for(seed, 20)
        assert abs(events[-1].due - span) < 1e-9
        bodies = serve_wl.job_bodies(seed, events)
        for ev in events:
            if ev.kind == "near":
                j = ev.jobs[0]
                original = max(i for i in range(j) if bodies[i] is bodies[j])
                assert serve_wl.NEAR <= j - original < 64


def test_every_metric_prints_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, entries in ((run.END_TO_END, spec["end_to_end"]),
                           (run.PER_LAYER, spec["per_layer"])):
        assert {e["name"]: e["unit"] for e in entries} == table
        doc = run.result_doc([Op("a")], [], dict.fromkeys(table, 1.5),
                             table)
        assert doc["metrics"] == {name: {"value": 1.5, "unit": unit}
                                  for name, unit in table.items()}
        assert list(doc) == ["correct", "attempted", "failed", "metrics"]


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_injected_wrong_eval_result_is_a_failed_op():
    from repro.harness import measure_slowdowns
    from repro.workloads import program_by_name
    key = "HPCG"
    workload = eval_wl.EvalWorkload(1, 20)
    workload.prepare()
    result = measure_slowdowns(program_by_name(key))
    workload.results = [result]
    ok = [Op(key)]
    assert workload.check(ok) == [] and ok[0].ok
    workload.golden[key]["fpx"]["injected_cycles"] += 1.0
    bad = [Op(key)]
    workload.check(bad)
    assert not bad[0].ok
    assert run.result_doc(bad, [], {}, {})["failed"] == 1


def test_injected_wrong_serve_report_is_a_failed_op():
    events = serve_wl.events_for(1, 20)
    bodies = serve_wl.job_bodies(1, events)
    j = next(i for i, b in enumerate(bodies) if "kernel" in b)
    workload = serve_wl.ServeWorkload(1, 20)
    workload.payloads = [json.dumps(bodies[j]).encode()]
    workload.late = [0.0]
    good = serve_wl.reference(bodies[j])
    workload.docs = {0: json.dumps({"status": "done",
                                    "report": good}).encode()}
    ops = [Op("detector/0")]
    assert workload.check(ops) == [] and ops[0].ok
    good["outputs"][0][0] ^= 1
    workload.docs = {0: json.dumps({"status": "done",
                                    "report": good}).encode()}
    ops = [Op("detector/0")]
    workload.check(ops)
    assert not ops[0].ok


def test_injected_wrong_table_row_is_a_failed_op():
    from repro.harness import SweepResult, UnitOutcome
    from perfbench import units
    workload = sweep_wl.SweepPoolWorkload(1, 20)
    report = units.detector_report(sweep_wl._key("GRAMSCHM"), False, 0)
    for ok in (True, False):
        if not ok:
            report.records.pop()
        outcome = UnitOutcome(0, "t4/GRAMSCHM", True, value=report)
        workload.sweep_results = [
            (0, "table4", 0, SweepResult([outcome], 1, engine="pool"))]
        ops = [Op("t4/GRAMSCHM")]
        assert workload.check(ops) == []
        assert ops[0].ok is ok
