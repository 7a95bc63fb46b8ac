"""Machine-readable export of the full evaluation (paper vs measured).

``run_full_evaluation`` regenerates every table and figure from one
session per (program, build) and returns a JSON-serialisable dictionary
plus the text renders of the same records;
``scripts/regenerate_all.py`` writes them to ``results/`` (the
dictionary as ``experiments.json``).  This is the artifact-evaluation
surface: a single document with every claim, its paper value, the
measured value, and a pass/fail verdict.
"""

from __future__ import annotations

import json
from typing import Any

from ..workloads import (
    EXCEPTION_PROGRAMS,
    TABLE6_FASTMATH,
    TABLE7,
    all_programs,
    exception_programs,
    program_by_name,
)
from .figures import FIGURE6_FACTORS, FIGURE6_PROGRAMS, Figure4Data, \
    Figure5Data, figure6_plan, slowdowns_plan
from .runner import run_plans
from .stats import fraction_below
from .tables import table4_plan, table5_plan, table6_plan, table7

__all__ = ["run_full_evaluation", "evaluation_to_json", "claims_summary"]


def _table_section(result) -> dict[str, Any]:
    return {
        "all_match": result.all_match,
        "rows": [
            {"program": row.program, "paper": row.paper,
             "measured": row.measured, "match": row.matches}
            for row in result.rows
        ],
    }


def run_full_evaluation(*, jobs: int | None = 1
                        ) -> tuple[dict[str, Any], dict[str, str]]:
    """Regenerate everything: the JSON-ready evaluation dict, and the
    text artifacts that render the same records, by file name.

    Tables 4-6 and Figures 4-6 share one session per (program, build):
    every program's precise build carries the Figure 4/5 observers plus
    whatever Tables 4-5 and Figure 6 read, and Table 6 adds one
    fast-math session per program.  ``jobs`` shards the sweeps across
    worker processes (``1`` = serial; results are identical either way).
    """
    programs = all_programs()
    exc = exception_programs()
    # Figure 4/5's plan comes first, so units run in registry order.
    slowdowns, t4, t5, t6, t6_precise, fig6 = run_plans(
        slowdowns_plan(programs), table4_plan(exc), table5_plan(exc),
        table6_plan(exc),
        table4_plan([p for p in exc if p.name in TABLE6_FASTMATH]),
        figure6_plan([program_by_name(n) for n in FIGURE6_PROGRAMS],
                     FIGURE6_FACTORS),
        jobs=jobs)
    t7 = table7({p.name: p for p in EXCEPTION_PROGRAMS.values()},
                jobs=jobs)
    fig4, fig5 = Figure4Data(slowdowns), Figure5Data(slowdowns)

    out: dict[str, Any] = {
        "programs": len(programs),
        "table4": _table_section(t4),
        "table5": _table_section(t5),
        "table6": _table_section(t6),
        "table7": {
            "rows": [
                {"program": d.program, "measured": d.row(),
                 "paper": TABLE7[d.program],
                 "match": d.row() == TABLE7[d.program],
                 "notes": d.notes}
                for d in t7.diagnoses
            ],
            "all_match": all(d.row() == TABLE7[d.program]
                             for d in t7.diagnoses),
        },
        "figure4": {
            "histograms": fig4.histograms(),
            "fpx_under_10x": fraction_below(fig4.fpx, 10.0),
            "binfpe_under_10x": fraction_below(fig4.binfpe, 10.0),
        },
        "figure5": {
            "geomean_speedup": fig5.geomean_speedup,
            "programs_100x_faster": fig5.programs_100x_faster,
            "programs_1000x_faster": fig5.programs_1000x_faster,
            "below_diagonal": fig5.below_diagonal(),
            "hangs_resolved": fig5.hangs_resolved(),
            "points": [{"program": n, "fpx": f, "binfpe": b}
                       for n, f, b in fig5.points()],
        },
        "figure6": {
            "factors": fig6.factors,
            "geomean_slowdowns": fig6.geomean_slowdowns,
            "total_exceptions": fig6.total_exceptions,
        },
    }
    out["claims"] = claims_summary(out)

    points = "".join(f"\n{n}\t{f:.3f}\t{b:.3f}" for n, f, b in fig5.points())
    texts = {
        "table4.txt": t4.render(),
        "table5.txt": t5.render(),
        # Table 6's precise rows are Table 4's for the same programs.
        "table6.txt": t6_precise.render() + "\n\n" + t6.render(),
        "table7.txt": t7.render(),
        "figure4.txt": fig4.render(),
        "figure5.txt": fig5.render(),
        "figure5_points.tsv": "program\tfpx_slowdown\tbinfpe_slowdown"
                              + points,
        "figure6.txt": fig6.render(),
    }
    return out, {name: text + "\n" for name, text in texts.items()}


def claims_summary(evaluation: dict[str, Any]) -> list[dict[str, Any]]:
    """The paper's headline claims as pass/fail checks."""
    f4, f5 = evaluation["figure4"], evaluation["figure5"]
    checks = [
        ("table4 exact", "all 26 rows", evaluation["table4"]["all_match"]),
        ("table5 exact", "all 3 rows", evaluation["table5"]["all_match"]),
        ("table6 exact", "all 8 rows", evaluation["table6"]["all_match"]),
        ("table7 verdicts", "all 11 rows",
         evaluation["table7"]["all_match"]),
        ("fpx under 10x", "over 60% of programs",
         f4["fpx_under_10x"] > 0.60),
        ("binfpe under 10x", "~40% of programs",
         0.30 <= f4["binfpe_under_10x"] <= 0.50),
        ("geomean speedup", "12-16x (paper: 12x / 16x)",
         12.0 <= f5["geomean_speedup"] <= 17.0),
        ("100x-faster programs", "49", f5["programs_100x_faster"] == 49),
        ("1000x-faster programs", "4", f5["programs_1000x_faster"] == 4),
        ("outliers", "the 3 named samples",
         sorted(f5["below_diagonal"]) == sorted(
             ["simpleAWBarrier", "reductionMultiBlockCG",
              "conjugateGradientMultiBlockCG"])),
        ("sampling shape", "monotone slowdown, mild detection loss",
         all(a >= b * 0.999 for a, b in zip(
             evaluation["figure6"]["geomean_slowdowns"],
             evaluation["figure6"]["geomean_slowdowns"][1:]))),
    ]
    return [{"claim": c, "paper": p, "pass": bool(ok)}
            for c, p, ok in checks]


def evaluation_to_json(evaluation: dict[str, Any], path) -> None:
    """Write the evaluation dict as pretty JSON."""
    with open(path, "w") as fh:
        json.dump(evaluation, fh, indent=2, sort_keys=True)
