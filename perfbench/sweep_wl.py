"""``sweep-pool``: the Tables 4-7 and Figure 6 sweeps on a warm pool.

A pinned one-worker :class:`repro.harness.WorkerPool` (so no number
depends on the core count) runs, per round, the 26 + 3 + 8 + 11 + 48 =
96 units behind Tables 4, 5, 6, 7 and Figure 6, one ``run_sweep`` per
table in the order ``run_full_evaluation`` issues them.  One op is one
unit, timed as the parent receives it through ``on_outcome``.  Round 1
starts with no warm builds, so cold builds stay in the timed region.
The seed only permutes the units inside each table: the worker's peak
RSS depends on the table order (115-441 MB over five shuffled orders,
with Table 7 first at the top), so the order stays fixed.
"""

from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path

from . import units
from .common import Op

DATA = Path(__file__).resolve().parent / "data"

#: Host seconds of one warm round on the reference box (a 2-core VM);
#: ``--seconds`` buys ``round(seconds / NOMINAL_ROUND_S)`` whole rounds,
#: at least two, so warm rounds always follow the cold one.
NOMINAL_ROUND_S = 5.0

#: ``run_full_evaluation``'s Figure 6 programs and factors.
FIGURE6_PROGRAMS = ("CuMF-Movielens", "SRU-Example", "myocyte", "backprop",
                    "concurrentKernels", "simpleStreams", "Laghos",
                    "Sw4lite (64)")
FIGURE6_FACTORS = (0, 4, 16, 64, 256)
#: The paper's Figure 6 exception totals per factor (results/figure6.txt).
FIGURE6_TOTALS = [346, 346, 346, 294, 294]


def _key(name: str) -> str:
    from repro.harness import registry_key
    from repro.workloads import program_by_name
    return registry_key(program_by_name(name))


def tables() -> dict[str, list[tuple[str, object]]]:
    """Every table's ``(unit key, picklable fn)`` list, in paper order."""
    from repro.workloads import exception_programs
    from repro.workloads.paper_data import (TABLE5_K64, TABLE6_FASTMATH,
                                            TABLE7)
    exc = [p.name for p in exception_programs()]
    out = {
        "table4": [(f"t4/{n}", functools.partial(
            units.detector_report, _key(n), False, 0)) for n in exc],
        "table5": [(f"t5/{n}", functools.partial(
            units.detector_report, _key(n), False, 64))
            for n in exc if n in TABLE5_K64],
        "table6": [(f"t6/{n}", functools.partial(
            units.detector_report, _key(n), True, 0))
            for n in exc if n in TABLE6_FASTMATH],
        "table7": [(f"t7/{n}", functools.partial(
            units.diagnosis, n,
            _key("Sw4lite (64)" if n == "Sw4lite" else n)))
            for n in TABLE7],
    }
    fig6 = [(f"f6/base/{n}", functools.partial(units.baseline, _key(n)))
            for n in FIGURE6_PROGRAMS]
    fig6 += [(f"f6/k{k}/{n}", functools.partial(units.sampled_detector,
                                                _key(n), k))
             for k in FIGURE6_FACTORS for n in FIGURE6_PROGRAMS]
    out["figure6"] = fig6
    return out


def rounds_for(seconds: int) -> int:
    return max(2, round(seconds / NOMINAL_ROUND_S))


def plan(seed: int, seconds: int) -> list[tuple[int, str, list]]:
    """The run's sweeps in order: ``(round, table, [(key, fn), ...])``."""
    groups = tables()
    rng = random.Random(seed)
    sweeps = []
    for n in range(rounds_for(seconds)):
        for name in groups:
            unit_list = list(groups[name])
            rng.shuffle(unit_list)
            sweeps.append((n, name, unit_list))
    return sweeps


def op_keys(seed: int, seconds: int) -> list[str]:
    return [key for _, _, unit_list in plan(seed, seconds)
            for key, _ in unit_list]


class SweepPoolWorkload:
    name = "sweep-pool"

    def __init__(self, seed: int, seconds: int, tracer=None) -> None:
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.outcomes = []
        self.sweep_results = []
        self.pool = None

    def prepare(self) -> None:
        self.sweeps = plan(self.seed, self.seconds)

    def setup(self) -> None:
        from repro.harness import WorkerPool
        t0 = time.perf_counter()
        self.pool = WorkerPool(1)
        self.pool_create_s = time.perf_counter() - t0

    def run(self) -> list[Op]:
        from repro.harness import SweepUnit, run_sweep
        ops: list[Op] = []
        self.t_run = time.perf_counter()
        self.first_back = None
        for round_, table, unit_list in self.sweeps:
            base = len(ops)
            ops += [Op(key) for key, _ in unit_list]
            last = [time.perf_counter()]

            def received(outcome, base=base, last=last):
                now = time.perf_counter()
                if self.first_back is None:
                    self.first_back = now
                op = ops[base + outcome.index]
                op.latency = now - last[0]
                last[0] = now
                if not outcome.ok:
                    op.fail(f"unit failed: {outcome.failure.kind}")
                self.outcomes.append(outcome)

            result = run_sweep([SweepUnit(k, fn) for k, fn in unit_list],
                               jobs=1, pool=self.pool, on_outcome=received)
            self.sweep_results.append((round_, table, base, result))
        return ops

    def teardown(self) -> None:
        if self.pool is not None:
            self.stats = self.pool.stats()
            self.pool.shutdown()

    def check(self, ops: list[Op]) -> list[str]:
        """Tables 4-6 rows equal the paper's, Table 7 the paper's
        verdicts, Figure 6 the golden totals; every sweep ran on the
        pool."""
        from repro.harness import geomean, measured_counts
        from repro.workloads.paper_data import (TABLE4, TABLE5_K64,
                                                TABLE6_FASTMATH, TABLE7,
                                                zero_filled)
        expected = {"t4": TABLE4, "t5": TABLE5_K64, "t6": TABLE6_FASTMATH}
        fig6 = json.loads((DATA / "figure6_golden.json").read_text())
        problems = []
        rounds: dict[int, dict] = {}
        for round_, table, base, result in self.sweep_results:
            if result.engine != "pool":
                problems.append(f"{table} sweep ran on {result.engine!r}")
            cells = rounds.setdefault(round_, {})
            for outcome in result.outcomes:
                op = ops[base + outcome.index]
                if not outcome.ok:
                    continue
                prefix, name = op.key.split("/", 1)
                value = outcome.value
                if prefix in expected:
                    want = zero_filled(expected[prefix].get(name, {}))
                    if zero_filled(measured_counts(value)) != want:
                        op.fail("table row differs from the paper")
                elif prefix == "t7":
                    if value.row() != TABLE7[name]:
                        op.fail("Table 7 verdict differs from the paper")
                else:
                    cells[op.key] = (op, value)
        for n, cells in sorted(rounds.items()):
            if len(cells) < len(FIGURE6_PROGRAMS) * (1 + len(FIGURE6_FACTORS)):
                continue    # a failed unit already counts as a failed op
            slowdowns, totals = [], []
            for k in FIGURE6_FACTORS:
                per_program, total = [], 0
                for name in FIGURE6_PROGRAMS:
                    base = cells[f"f6/base/{name}"][1]
                    report, stats = cells[f"f6/k{k}/{name}"][1]
                    per_program.append(stats.slowdown(base))
                    total += report.total()
                slowdowns.append(geomean(per_program))
                totals.append(total)
            if totals != FIGURE6_TOTALS \
                    or totals != fig6["total_exceptions"] \
                    or slowdowns != fig6["geomean_slowdowns"]:
                problems.append(f"round {n}: Figure 6 differs from the "
                                f"golden: {slowdowns} {totals}")
                for op, _ in cells.values():
                    op.fail("Figure 6 differs from the golden")
        return problems

    def layers(self, ops: list[Op], wall: float) -> dict[str, float]:
        """The pool's split, from what ``run_sweep`` and
        ``WorkerPool.stats()`` return."""
        n = len(self.outcomes)
        busy = sum(o.duration for o in self.outcomes)
        elapsed = sum(r.elapsed for *_, r in self.sweep_results)
        return {
            # Pool construction plus the wait for the first unit; the
            # tracer install and gc between them are not spin-up.
            "harness.pool.spinup_s": self.pool_create_s
            + (self.first_back - self.t_run),
            "harness.pool.unit_ms": 1000.0 * busy / n,
            "harness.pool.dispatch_ms": 1000.0 * (elapsed - busy) / n,
            "harness.pool.warm_build_ratio": self.stats.warm_builds / n,
            "harness.pool.arena_bytes": self.stats.arena_bytes,
            "harness.pool.inline_fallbacks": self.stats.inline_fallbacks,
            "harness.pool.retries": sum(o.attempts - 1
                                        for o in self.outcomes),
        }

    def counts(self) -> dict[str, int]:
        """Modeled counts summed over the ``RunStats`` the Figure 6
        units return (the table units return reports only)."""
        from repro.gpu.cost import RunStats
        out = {"nvbit.launches": 0, "gpu.warp_instrs": 0,
               "fpx.channel_messages": 0, "binfpe.channel_messages": 0}
        for outcome in self.outcomes:
            value = outcome.value if outcome.ok else None
            if isinstance(value, tuple):
                stats = value[1]
                out["fpx.channel_messages"] += stats.channel_messages
            elif isinstance(value, RunStats):
                stats = value
            else:
                continue
            out["nvbit.launches"] += stats.launches
            out["gpu.warp_instrs"] += stats.warp_instrs
        return out
