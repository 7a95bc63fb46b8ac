"""Table 7 — diagnosis and repair outcomes for severe-exception programs.

Runs the full §5 workflow per program: detector screening, output
scanning (do the exceptions matter?), registered repair strategies, and
repaired-variant validation — and asserts every verdict matches Table 7.
``results/table7.txt`` is written by ``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import pytest

from repro.harness.tables import table7
from repro.workloads import EXCEPTION_PROGRAMS, TABLE7
from conftest import save_artifact


@pytest.mark.benchmark(group="table7")
def test_table7_diagnosis(benchmark):
    programs = {p.name: p for p in EXCEPTION_PROGRAMS.values()}
    result = benchmark.pedantic(lambda: table7(programs), rounds=1,
                                iterations=1)
    print("\n" + result.render())
    for diag in result.diagnoses:
        assert diag.row() == TABLE7[diag.program], \
            f"{diag.program}: {diag.row()} != {TABLE7[diag.program]}"


@pytest.mark.benchmark(group="table7")
def test_repairs_validate(benchmark, results_dir):
    """Every registered repair produces an exception-free program."""
    from repro.harness.runner import run_detector
    from repro.workloads import REPAIR_STRATEGIES

    def validate():
        fixed = []
        for name, strategy in REPAIR_STRATEGIES.items():
            if strategy.make_repaired is None:
                continue
            report, _ = run_detector(strategy.make_repaired())
            assert not report.has_exceptions(), name
            fixed.append(name)
        return fixed

    fixed = benchmark.pedantic(validate, rounds=1, iterations=1)
    assert sorted(fixed) == ["CuMF-Movielens", "GRAMSCHM", "LU",
                             "SRU-Example", "cuML-HousePrice"]
    save_artifact(results_dir, "table7_repairs.txt",
                  "validated repairs: " + ", ".join(sorted(fixed)))
