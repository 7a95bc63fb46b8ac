"""Declarative instrumentation plans.

A plan is what a tool *would* inject into one kernel's SASS, expressed as
data instead of as mutations of the executor's pc-keyed injection dicts.
Plans exist so the decode pipeline (:mod:`repro.gpu.decode`) can fuse the
injected calls into each instruction's decoded micro-op exactly once, and
so the runtime can key its decoded-program cache on a stable *plan
fingerprint*: two launches whose kernel SASS and plan fingerprints match
reuse the same fused program and skip decode entirely.

The fingerprint hashes the injection sites (pc + phase), the injected
device function's qualified name and the static argument tuple — not the
bound callable identity — so it is stable across repeated plans from the
same tool instance and equal for tools configured identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from ..gpu.executor import Injection

if TYPE_CHECKING:  # pragma: no cover
    from ..gpu.executor import InjectionCtx
    from ..sass.program import KernelCode

__all__ = ["PlannedInjection", "InstrumentationPlan", "shadow_checkpoints"]


@dataclass(frozen=True)
class PlannedInjection:
    """One injected device-function call at a specific pc, as data."""

    pc: int
    when: str  # "before" | "after"
    fn: Callable[["InjectionCtx"], None]
    args: tuple = ()
    #: Optional cohort-aware probe (one call per warp cohort); excluded
    #: from :meth:`tag` — it is derived from the same tool logic as
    #: ``fn``, so plans with and without it fingerprint identically.
    cohort_fn: Callable | None = None

    def __post_init__(self) -> None:
        if self.when not in ("before", "after"):
            raise ValueError(f"bad injection phase {self.when!r}")

    def tag(self) -> str:
        """Stable identity of the injected call (fingerprint component)."""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"{self.pc}:{self.when}:{name}:{self.args!r}"

    def to_injection(self, observer: int = 0) -> Injection:
        return Injection(self.when, self.fn, self.args, self.cohort_fn,
                         observer)


@dataclass
class InstrumentationPlan:
    """Everything one tool injects into one kernel, as data."""

    tool: str
    kernel: str
    entries: tuple[PlannedInjection, ...] = ()
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_hooks(cls, tool: str, kernel: str,
                   hooks: list[tuple[int, Injection]]) -> "InstrumentationPlan":
        """Wrap a legacy ``instrument_kernel`` hook list into a plan."""
        return cls(tool, kernel, tuple(
            PlannedInjection(pc, inj.when, inj.fn, inj.args)
            for pc, inj in hooks))

    @property
    def fingerprint(self) -> str:
        """Stable digest of (tool, kernel, every planned injection)."""
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(f"{self.tool}|{self.kernel}".encode())
            for entry in self.entries:
                h.update(b"\n")
                h.update(entry.tag().encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def to_hooks(self, observer: int = 0) -> list[tuple[int, Injection]]:
        """Render as the legacy ``(pc, Injection)`` hook list, each call
        tagged with ``observer``."""
        return [(e.pc, e.to_injection(observer)) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def shadow_checkpoints(code: "KernelCode") -> tuple:
    """The shadow-comparison sites this kernel would get, as data.

    Like a plan, but for the shadow-precision plane: one
    ``(pc, sass, source_loc, fmt)`` tuple per instruction whose result
    the shadow plane compares against its higher-precision re-execution
    (``fmt`` is ``"FP32"`` or ``"FP64"``).  Untracked and shadow-killing
    instructions are omitted.  Useful for tooling that wants to preview
    coverage without running anything.
    """
    from ..gpu.shadow import shadow_slots
    return tuple((s.pc, s.sass, s.source_loc, s.fmt)
                 for s in shadow_slots(code)
                 if s is not None and s.checked)
