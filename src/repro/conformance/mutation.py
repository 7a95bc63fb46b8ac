"""Fault injection for the conformance engine's own acceptance tests.

:mod:`repro.gpu.warp` keeps a module-level ``_MUTATIONS`` flag set that
the simulator's shared semantics consult to deliberately mis-execute.
Each flag is a bug the conformance engine must catch:

- ``"fp32-drop-ftz-flush"`` makes the decoded FP32 add/multiply skip
  the ``.FTZ`` output flush (a dropped FTZ, one of the silent-data-
  corruption error patterns).  Every engine runs the same closures, so
  the engines agree with each other and only the oracle catches it
  (``oracle vs decoded``).
- ``"cohort-drop-full-row-write"`` makes the stacked register view skip
  its whole-row stores, a bug only the stacked engines (cohort,
  megabatch) run, so the path-vs-path differential catches it
  (``cohort vs decoded``).

Turning a flag on and fuzzing proves the differential engine actually
catches such bugs and shrinks them — a detector test-suite for the
detector.

Production code never sets these flags; tests use the context manager::

    with mutation("fp32-drop-ftz-flush"):
        outcome = run_case(case)
    assert not outcome.ok
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from ..gpu import warp

__all__ = ["KNOWN_MUTATIONS", "mutation"]

#: Flags the simulator currently understands (kept in sync with the
#: ``_MUTATIONS`` membership tests in :mod:`repro.gpu.decode` and
#: :mod:`repro.gpu.warp`).
KNOWN_MUTATIONS = frozenset({"fp32-drop-ftz-flush",
                             "cohort-drop-full-row-write"})


@contextlib.contextmanager
def mutation(*flags: str) -> Iterator[None]:
    """Enable fault-injection flags for the duration."""
    for flag in flags:
        if flag not in KNOWN_MUTATIONS:
            raise ValueError(f"unknown mutation flag {flag!r}; "
                             f"known: {sorted(KNOWN_MUTATIONS)}")
    saved = set(warp._MUTATIONS)
    warp._MUTATIONS.update(flags)
    try:
        yield
    finally:
        warp._MUTATIONS.clear()
        warp._MUTATIONS.update(saved)
