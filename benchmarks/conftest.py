"""Shared fixtures for the per-table/figure benchmark harness.

Each benchmark regenerates one paper artifact, asserts its headline
claims, and writes the rendered table/figure data under ``results/`` so
EXPERIMENTS.md can be checked against fresh runs.  Quick mode
(``BENCH_QUICK=1``) runs and asserts the same way but writes nothing:
its shrunken runs are not the committed artifacts.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.parallel import default_jobs
from repro.harness.pool import pool_available
from repro.workloads import all_programs, exception_programs

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))


def bench_jobs() -> int:
    """Worker processes for the sweep benchmarks.

    ``BENCH_JOBS=N`` pins the count; otherwise every available core
    (serial where the worker pool is unavailable).
    """
    env = os.environ.get("BENCH_JOBS")
    if env:
        return max(1, int(env))
    return default_jobs() if pool_available() else 1


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def programs():
    """All 151 programs."""
    return all_programs()


@pytest.fixture(scope="session")
def table4_programs():
    """The 26 exception-bearing programs."""
    return exception_programs()


def save_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write ``results/<name>``; quick mode never writes under ``results/``."""
    if QUICK:
        return
    (results_dir / name).write_text(text + "\n")
