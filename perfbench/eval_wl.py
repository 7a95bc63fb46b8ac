"""``eval``: the paper's Figure-4/5 measurement, serial and in-process.

One op is one program's ``measure_slowdowns`` (baseline, BinFPE,
GPU-FPX without GT, GPU-FPX with GT on one build).  Every run measures
the same fixed program subset (``data/eval_subset.json``, kind-stratified
and committed); the seed only permutes the order.  No pool is
installed, so pool dispatch, the job service and megabatching do no
work here.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

from .common import Op

DATA = Path(__file__).resolve().parent / "data"

#: Host seconds one pass over the subset takes on the reference box (a
#: 2-core VM); ``--seconds`` buys ``round(seconds / NOMINAL_PASS_S)``
#: whole passes, so a run is never cut mid-list.
NOMINAL_PASS_S = 20.0

CONFIGS = ("base", "binfpe", "fpx_no_gt", "fpx")

#: The Figure-4/5 rows of ``repro.harness.export.claims_summary``.
FIG45_CLAIMS = ("fpx under 10x", "binfpe under 10x", "geomean speedup",
                "100x-faster programs", "1000x-faster programs",
                "outliers")


def subset() -> list[str]:
    return json.loads((DATA / "eval_subset.json").read_text())


def golden() -> dict:
    return json.loads((DATA / "eval_golden.json").read_text())


def op_keys(seed: int, seconds: int) -> list[str]:
    """The run's op list: whole passes over the subset in seed order."""
    programs = subset()
    rng = random.Random(seed)
    keys: list[str] = []
    for _ in range(max(1, round(seconds / NOMINAL_PASS_S))):
        order = list(programs)
        rng.shuffle(order)
        keys += order
    return keys


def stats_fields(stats) -> dict:
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats) if f.name != "cost"}


def result_fields(result) -> dict:
    """A ``ProgramSlowdowns`` as plain JSON, every ``RunStats`` field."""
    return {name: stats_fields(getattr(result, name)) for name in CONFIGS}


def pass_claims(results: dict[str, dict]) -> list[str]:
    """The Figure-4/5 paper claims that fail over ``results``, which
    maps every registry key to its :func:`result_fields`."""
    from repro.gpu.cost import RunStats
    from repro.harness import (Figure4Data, Figure5Data, ProgramSlowdowns,
                               claims_summary, fraction_below,
                               registry_key)
    from repro.workloads import all_programs

    rows = []
    for program in all_programs():
        stats = [RunStats(**results[registry_key(program)][c])
                 for c in CONFIGS]
        rows.append(ProgramSlowdowns(program.name, program.suite, *stats))
    fig4, fig5 = Figure4Data(rows), Figure5Data(rows)
    tables = {"all_match": True}
    evaluation = {
        "table4": tables, "table5": tables, "table6": tables,
        "table7": tables,
        "figure4": {"fpx_under_10x": fraction_below(fig4.fpx, 10.0),
                    "binfpe_under_10x": fraction_below(fig4.binfpe, 10.0)},
        "figure5": {"geomean_speedup": fig5.geomean_speedup,
                    "programs_100x_faster": fig5.programs_100x_faster,
                    "programs_1000x_faster": fig5.programs_1000x_faster,
                    "below_diagonal": fig5.below_diagonal()},
        "figure6": {"geomean_slowdowns": [1.0]},
    }
    return [c["claim"] for c in claims_summary(evaluation)
            if c["claim"] in FIG45_CLAIMS and not c["pass"]]


class EvalWorkload:
    name = "eval"

    def __init__(self, seed: int, seconds: int, tracer=None) -> None:
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.keys = op_keys(seed, seconds)
        self.results: list = []

    def prepare(self) -> None:
        self.golden = golden()

    def setup(self) -> None:
        import repro.harness  # noqa: F401  (imports are set-up time)
        from repro.workloads import program_by_name
        self.programs = [program_by_name(k) for k in self.keys]

    def run(self) -> list[Op]:
        """Time each program's ``measure_slowdowns``.  Traced, the op is
        one ``eval.op`` span; the tracer's wrappers in the runner module
        add the build and the four runs it makes beneath it."""
        from repro.harness import measure_slowdowns
        tr = self.tracer
        ops = []
        for i, program in enumerate(self.programs):
            op = Op(self.keys[i])
            t0 = time.perf_counter()
            if tr is None:
                result = measure_slowdowns(program)
            else:
                tr.set_op(i)
                with tr.span("eval.op"):
                    result = measure_slowdowns(program)
            op.latency = time.perf_counter() - t0
            ops.append(op)
            self.results.append(result)
        return ops

    def teardown(self) -> None:
        pass

    def check(self, ops: list[Op]) -> list[str]:
        """Each op must equal its golden; each pass must keep the
        paper's Figure-4/5 claims, judged on the full 151-program set
        with the programs outside the subset at their golden values."""
        problems = []
        per_pass = len(subset())
        for start in range(0, len(ops), per_pass):
            measured = {}
            for op, result in zip(ops[start:start + per_pass],
                                  self.results[start:start + per_pass]):
                fields = result_fields(result)
                if fields != self.golden[op.key]:
                    op.fail("four-config result differs from the golden")
                measured[op.key] = fields
            failed = pass_claims({**self.golden, **measured})
            if failed:
                problems.append(f"pass {start // per_pass}: paper claims "
                                f"fail: {failed}")
        return problems

    def layers(self, ops: list[Op], wall: float) -> dict[str, float]:
        from .tracing import layer_times
        return layer_times(self.tracer, len(ops))

    def counts(self) -> dict[str, int]:
        """Modeled counts summed over the run's results."""
        out = {"nvbit.launches": 0, "gpu.warp_instrs": 0,
               "fpx.channel_messages": 0, "binfpe.channel_messages": 0}
        for r in self.results:
            for c in CONFIGS:
                stats = getattr(r, c)
                out["nvbit.launches"] += stats.launches
                out["gpu.warp_instrs"] += stats.warp_instrs
            out["fpx.channel_messages"] += (r.fpx.channel_messages
                                            + r.fpx_no_gt.channel_messages)
            out["binfpe.channel_messages"] += r.binfpe.channel_messages
        return out
