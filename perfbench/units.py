"""Picklable sweep units for the ``sweep-pool`` workload.

By-key wrappers over the public runners that return what the harness's
own Table 4-7 and Figure 6 units return, so the pool ships the same
objects through its arenas as ``run_full_evaluation`` does: an
``ExceptionReport`` per table row, a ``Diagnosis`` per Table 7 row, a
``RunStats`` per Figure 6 baseline and a ``(report, RunStats)`` pair per
Figure 6 cell.
"""

from __future__ import annotations

__all__ = ["detector_report", "diagnosis", "baseline", "sampled_detector"]


def detector_report(key: str, fast_math: bool, freq_redn_factor: int):
    """One Table 4/5/6 row: the detector's report on one build."""
    from repro.compiler import CompileOptions
    from repro.fpx import DetectorConfig
    from repro.harness import run_detector
    from repro.workloads import program_by_name
    options = CompileOptions.fast_math() if fast_math else None
    return run_detector(
        program_by_name(key), options=options,
        config=DetectorConfig(freq_redn_factor=freq_redn_factor))[0]


def diagnosis(paper_name: str, key: str):
    """One Table 7 row: the diagnose-and-repair ``Diagnosis``."""
    from repro.fpx.diagnosis import diagnose
    from repro.workloads import program_by_name
    from repro.workloads.repairs import strategy_for
    diag = diagnose(program_by_name(key), strategy_for(paper_name))
    diag.program = paper_name
    return diag


def baseline(key: str):
    """One Figure 6 baseline cell: its ``RunStats``."""
    from repro.harness import run_baseline
    from repro.workloads import program_by_name
    return run_baseline(program_by_name(key))


def sampled_detector(key: str, freq_redn_factor: int):
    """One Figure 6 detector cell at one FREQ-REDN-FACTOR:
    ``(report, RunStats)``."""
    from repro.fpx import DetectorConfig
    from repro.harness import run_detector
    from repro.workloads import program_by_name
    return run_detector(
        program_by_name(key),
        config=DetectorConfig(freq_redn_factor=freq_redn_factor))
