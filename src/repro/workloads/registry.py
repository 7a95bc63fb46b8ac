"""The full 151-program evaluation set (Table 3)."""

from __future__ import annotations

from .base import Program
from .catalog import GENERIC_PROGRAMS, KIND_OF
from .exception_programs import EXCEPTION_PROGRAMS
from .paper_data import SUITE_SIZES

__all__ = ["all_programs", "program_by_name", "registry_key",
           "programs_in_suite", "exception_programs", "kind_of"]

_ALL: list[Program] = list(GENERIC_PROGRAMS) + list(
    EXCEPTION_PROGRAMS.values())
_BY_NAME: dict[str, Program] = {}
for _p in _ALL:
    key = _p.name if _p.name not in _BY_NAME else f"{_p.suite}/{_p.name}"
    _BY_NAME[key] = _p

_by_suite: dict[str, int] = {}
for _p in _ALL:
    _by_suite[_p.suite] = _by_suite.get(_p.suite, 0) + 1
assert _by_suite == SUITE_SIZES, (_by_suite, SUITE_SIZES)
assert len(_ALL) == 151

# The silent-error demonstration programs resolve by name (so
# ``repro run shadow-cancel --shadow`` and serve jobs can use them) but
# stay out of _ALL: the paper's tables are a fixed 151-program set.
from .shadow_programs import SHADOW_PROGRAMS  # noqa: E402

for _p in SHADOW_PROGRAMS:
    assert _p.name not in _BY_NAME, _p.name
    _BY_NAME[_p.name] = _p


def all_programs() -> list[Program]:
    """All 151 programs, generic first, stable order."""
    return list(_ALL)


def program_by_name(name: str) -> Program:
    """Look up by name (suite-qualified for the two duplicate names)."""
    return _BY_NAME[name]


def registry_key(program: Program) -> str | None:
    """The key :func:`program_by_name` resolves to this exact object.

    ``None`` for an ad-hoc instance the registry does not hold (for
    example a ``dataclasses.replace`` copy of a registered program).
    """
    for key in (program.name, f"{program.suite}/{program.name}"):
        if _BY_NAME.get(key) is program:
            return key
    return None


def programs_in_suite(suite: str) -> list[Program]:
    return [p for p in _ALL if p.suite == suite]


def exception_programs() -> list[Program]:
    """The 26 Table 4 programs."""
    return list(EXCEPTION_PROGRAMS.values())


def kind_of(program: Program) -> str:
    """Workload kind ('dense', 'int', ...; 'exception' for Table 4 ones)."""
    return KIND_OF.get((program.suite, program.name), "exception")
