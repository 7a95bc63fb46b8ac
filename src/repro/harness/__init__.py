"""Evaluation harness: runners, statistics, figure and table generators."""

from .figures import (
    Figure4Data,
    Figure5Data,
    Figure6Data,
    figure4,
    figure5,
    figure6,
)
from .parallel import (
    SweepError,
    SweepResult,
    SweepUnit,
    UnitFailure,
    UnitOutcome,
    default_jobs,
    run_sweep,
)
from .pool import (
    PoolStats,
    WorkerPool,
    get_pool,
    install_pool,
    installed_pool,
    shutdown_pool,
    uninstall_pool,
    use_pool,
)
from .runner import (
    BuiltProgram,
    ProgramSlowdowns,
    build_program,
    evaluate,
    evaluate_many,
    measure_slowdowns,
    measured_counts,
    run_analyzer,
    run_baseline,
    run_binfpe,
    run_detector,
)
from ..workloads.registry import registry_key
from .stats import BUCKETS, bucket_label, fraction_below, geomean, \
    histogram_buckets
from .export import claims_summary, evaluation_to_json, run_full_evaluation
from .profile import ProgramProfile, characterization_table, profile_program
from .tables import TableResult, TableRow, table4, table5, table6, table7
from .workflow import ScreeningResult, WorkflowOutcome, screen_then_analyze

__all__ = [
    "Figure4Data", "Figure5Data", "Figure6Data",
    "figure4", "figure5", "figure6",
    "SweepError", "SweepResult", "SweepUnit", "UnitFailure",
    "UnitOutcome", "default_jobs", "run_sweep",
    "PoolStats", "WorkerPool", "get_pool", "install_pool",
    "installed_pool", "shutdown_pool", "uninstall_pool", "use_pool",
    "BuiltProgram", "ProgramSlowdowns", "build_program",
    "evaluate", "evaluate_many", "measure_slowdowns", "measured_counts",
    "registry_key",
    "run_analyzer", "run_baseline", "run_binfpe", "run_detector",
    "BUCKETS", "bucket_label", "fraction_below", "geomean",
    "histogram_buckets",
    "TableResult", "TableRow", "table4", "table5", "table6", "table7",
    "claims_summary", "evaluation_to_json", "run_full_evaluation",
    "ProgramProfile", "characterization_table", "profile_program",
    "ScreeningResult", "WorkflowOutcome", "screen_then_analyze",
]
