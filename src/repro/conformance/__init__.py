"""Differential fuzzing + conformance for the four execution paths.

The simulator can execute a launch four ways — the decoded serial
pipeline, the warp-cohort batched engine, the launch-batched megabatch
engine, and the process-pool sweep — and every one of them must be
observationally identical.  This package makes that a tested property
instead of a hoped-for one:

* :mod:`.generator` — seeded SASS + operand-vector generation biased
  toward exception-adjacent bit patterns;
* :mod:`.engine` — runs each case on all four paths, asserting
  bit-identical register state, channel-record streams (order
  included) and exception classifications, plus a pure-Python
  IEEE-754 oracle check of the reference ``decoded`` path;
* :mod:`.shrink` — reduces a diverging case to a minimal reproducer;
* :mod:`.corpus` — the checked-in regression corpus
  (``tests/corpus/*.json``) replayed forever by the tier-1 suite;
* :mod:`.mutation` — simulator fault injection, so the engine's
  bug-catching power is itself under test.

CLI: ``python -m repro.cli conformance fuzz|replay|shrink``.
``docs/CONFORMANCE.md`` is the user-facing tour.
"""

from .corpus import (
    default_corpus_dir,
    dump_case,
    load_case,
    load_corpus,
    save_case,
)
from .engine import (
    CaseOutcome,
    FuzzResult,
    PathObservation,
    RecordingDetector,
    fuzz,
    oracle_outputs,
    run_case,
)
from .generator import Case, InputVec, OpSpec, generate_case
from .mutation import KNOWN_MUTATIONS, mutation
from .shrink import shrink_case

__all__ = [
    "Case", "CaseOutcome", "FuzzResult", "InputVec", "KNOWN_MUTATIONS",
    "OpSpec", "PathObservation", "RecordingDetector",
    "default_corpus_dir", "dump_case", "fuzz", "generate_case",
    "load_case", "load_corpus", "mutation", "oracle_outputs", "run_case",
    "save_case", "shrink_case",
]
