"""Tool base class — the analogue of an NVBit tool shared library.

A real NVBit tool is a ``.so`` loaded via ``LD_PRELOAD`` that intercepts
CUDA driver calls; here a tool is an object attached to a
:class:`repro.nvbit.runtime.ToolRuntime`.  The surface mirrors what
GPU-FPX uses:

- ``plan_kernel(code)`` is the primary override: called once per kernel
  when its instrumented SASS is first needed (NVBit's instrumentation
  callback), it returns the declarative
  :class:`~repro.nvbit.plan.InstrumentationPlan`.
- ``instrument_kernel(code)`` is a derived read-only helper — it
  renders ``plan_kernel(code).to_hooks()``.  Overriding it was
  deprecated during the Session migration and is now an error: the
  base ``plan_kernel`` raises with directions when it detects an
  override.
- ``should_instrument(kernel_name)`` is consulted on *every* launch —
  this is where GPU-FPX implements Algorithm 3 (white-lists and
  FREQ-REDN-FACTOR undersampling) via ``nvbit_enable_instrumented``.
- ``receive(messages)`` is the host-side channel receiver thread.
- ``on_context_start(run)`` lets a tool charge one-time setup cost
  (GPU-FPX allocates the 4 MB GT table here).

**The probe contract.**  An injected probe (a plan entry's ``fn`` or
``cohort_fn``) reads warp state and charges cycles — nothing else.
Every other effect (channel pushes, GT updates, counters, recorded
events) goes through ``ctx.defer(...)``, whose emission runs after the
launch, in canonical (block, barrier phase, warp, program order) order,
against the tool's then-current host-side state.  Scratch that a later
probe of the same execution consumes (the analyzer's before-hook
capture) is the one exception.  The runtime relies on this: several
tools observe one execution, and a repeated stateless launch's warm
invocation is a replay of the cold invocation's emissions, not a second
execution.  Every tool in this repository keeps the contract, and the
fused-vs-solo tests hold them to it.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from ..gpu.executor import Injection
from ..sass.program import KernelCode
from .plan import InstrumentationPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..gpu.cost import RunStats

__all__ = ["NVBitTool"]


class NVBitTool:
    """Base class for binary-instrumentation tools."""

    name = "nvbit-tool"
    #: True when the tool deduplicates channel records globally (GPU-FPX
    #: with GT): a modeled-larger grid then sends no additional messages.
    dedups_channel_messages = False

    def on_context_start(self, run: "RunStats") -> None:
        """Called when the CUDA context starts (before the first launch)."""

    def should_instrument(self, kernel_name: str) -> bool:
        """Per-launch instrumentation decision (Algorithm 3 hook).

        Called once per kernel launch, *in launch order*; implementations
        may keep per-kernel invocation counters.
        """
        return True

    def plan_kernel(self, code: KernelCode) -> InstrumentationPlan:
        """Produce this tool's declarative plan for one kernel.

        This is the primary (and only) instrumentation override.  The
        legacy ``instrument_kernel`` override path was removed after its
        deprecation cycle; a subclass that still overrides it fails here
        with directions.
        """
        cls = type(self)
        if cls.instrument_kernel is not NVBitTool.instrument_kernel:
            raise RuntimeError(
                f"{cls.__qualname__} overrides NVBitTool.instrument_kernel,"
                f" which was removed; override plan_kernel(code) to return"
                f" an InstrumentationPlan (see repro.nvbit.plan) instead")
        raise NotImplementedError

    def instrument_kernel(self, code: KernelCode
                          ) -> list[tuple[int, Injection]]:
        """Render the injected ``(pc, Injection)`` calls for one kernel.

        Derived from :meth:`plan_kernel`; do not override.
        """
        return self.plan_kernel(code).to_hooks()

    def receive(self, messages: Iterable[object]) -> None:
        """Host-side processing of channel records."""

    def on_program_end(self) -> None:
        """Called after the last launch (final report hooks)."""
