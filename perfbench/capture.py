"""Capture the benchmark's goldens and the fixed ``eval`` program subset.

Run once, at the commit whose outputs the benchmark pins::

    python3 perfbench/capture.py

It writes ``perfbench/data/eval_golden.json`` (every program's four
Figure-4/5 configurations, each ``RunStats`` field at full precision),
``perfbench/data/figure6_golden.json`` (Figure 6 geomeans and totals)
and ``perfbench/data/eval_subset.json``.  Before writing it checks the
golden against ``results/figure5_points.tsv`` (three decimals) and the
paper's Figure-4/5 claims.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.harness import (figure6, measure_slowdowns,  # noqa: E402
                           registry_key)
from repro.workloads import all_programs, program_by_name  # noqa: E402
from repro.workloads.registry import kind_of  # noqa: E402

from perfbench import eval_wl  # noqa: E402
from perfbench.sweep_wl import FIGURE6_FACTORS, FIGURE6_PROGRAMS  # noqa: E402

#: Of every three programs of a kind (ordered by simulated work), the
#: subset keeps the first two.
KEEP_OF_THREE = 2


def _tsv_points() -> list[tuple[str, str, str]]:
    """Figure 5's rows in registry order (two names repeat across
    suites, so rows are matched by position, not by name)."""
    rows = (ROOT / "results" / "figure5_points.tsv").read_text().splitlines()
    return [tuple(r.split("\t")) for r in rows[1:]]


def main() -> int:
    golden, by_kind = {}, {}
    tsv = _tsv_points()
    if len(tsv) != len(all_programs()):
        print("figure5_points.tsv does not cover the registry",
              file=sys.stderr)
        return 1
    for program, row in zip(all_programs(), tsv):
        key = registry_key(program)
        result = measure_slowdowns(program)
        golden[key] = eval_wl.result_fields(result)
        want = row
        got = (program.name, f"{result.fpx_slowdown:.3f}",
               f"{result.binfpe_slowdown:.3f}")
        if got != want:
            print(f"{key}: measured {got} but figure5_points.tsv has "
                  f"{want}", file=sys.stderr)
            return 1
        work = sum(c["warp_instrs"] for c in golden[key].values())
        by_kind.setdefault(kind_of(program), []).append((work, key))
    failed = eval_wl.pass_claims(golden)
    if failed:
        print(f"golden fails paper claims: {failed}", file=sys.stderr)
        return 1
    subset = []
    for kind in sorted(by_kind):
        ranked = sorted(by_kind[kind], reverse=True)
        subset += [key for i, (_, key) in enumerate(ranked)
                   if i % 3 < KEEP_OF_THREE]
    fig6 = figure6([program_by_name(n) for n in FIGURE6_PROGRAMS],
                   factors=FIGURE6_FACTORS)
    DATA.mkdir(exist_ok=True)
    (DATA / "eval_golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    (DATA / "eval_subset.json").write_text(
        json.dumps(sorted(subset), indent=1) + "\n")
    (DATA / "figure6_golden.json").write_text(json.dumps(
        {"geomean_slowdowns": fig6.geomean_slowdowns,
         "total_exceptions": fig6.total_exceptions}, indent=1) + "\n")
    print(f"golden: {len(golden)} programs; subset: {len(subset)}; "
          f"figure 6 totals {fig6.total_exceptions}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
