"""The device: memory and the raw kernel-launch entry point.

``Device._launch_kernel`` executes a kernel with optional
instrumentation hooks.  It deliberately knows nothing about tools:
interception and instrumentation policy live in
:mod:`repro.nvbit.runtime`, mirroring how NVBit sits between the CUDA
driver API and the GPU (Figure 1 of the paper).  The old public
``launch_raw`` alias was removed after its deprecation cycle; all
launches go through :class:`repro.api.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..sass.program import KernelCode
from ..telemetry import get_telemetry
from ..telemetry.names import SPAN_GPU_LAUNCH
from .cost import CostModel, DEFAULT_COST_MODEL, LaunchStats
from .executor import (Injection, LaunchContext, Ledger, execute_launch,
                       execute_megabatch, replay)
from .memory import ConstBanks, GlobalMemory, MegaGlobalMemory

if TYPE_CHECKING:  # pragma: no cover
    from .decode import DecodedProgram

__all__ = ["Device", "LaunchConfig"]


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry for one launch (1-D, like most of the paper's
    benchmarks' hot kernels)."""

    grid_dim: int = 1
    block_dim: int = 32

    def __post_init__(self) -> None:
        if self.grid_dim < 1 or self.block_dim < 1 or self.block_dim > 1024:
            raise ValueError(f"bad launch config {self}")


@dataclass
class Device:
    """One simulated GPU."""

    name: str = "SimGPU (Ampere-class)"
    cost: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    global_mem: GlobalMemory = field(default_factory=GlobalMemory)

    def alloc_array(self, arr: np.ndarray) -> int:
        """Allocate and copy a host array to the device; returns address."""
        addr = self.global_mem.alloc(arr.nbytes)
        self.global_mem.write_array(addr, arr)
        return addr

    def alloc_zeros(self, nbytes: int) -> int:
        """Allocate zero-initialised device memory."""
        return self.global_mem.alloc(nbytes)

    def read_back(self, addr: int, dtype, count: int) -> np.ndarray:
        """Copy device memory back to the host."""
        return self.global_mem.read_array(addr, dtype, count)

    def snapshot_state(self):
        """Freeze device memory (the build-once fast path: snapshot
        after building a program, restore before each run).  Channels
        belong to the runtime's observers, not to the device."""
        return self.global_mem.snapshot()

    def restore_state(self, state) -> None:
        """Return memory to a :meth:`snapshot_state` point."""
        self.global_mem.restore(state)

    def launch_raw(self, *args, **kwargs):
        """Removed.  Launch through :class:`repro.api.Session` instead.

        The deprecation shim from the Session migration is gone; this
        stub exists only to fail loudly with directions.
        """
        raise RuntimeError(
            "Device.launch_raw() was removed; launch through "
            "repro.api.Session instead — e.g. "
            "Session(tool, device=device).launch(LaunchSpec(code, config, "
            "params))")

    def _launch_kernel(self, code: KernelCode, config: LaunchConfig,
                       params: list[int] | None = None,
                       hooks: list[tuple[int, Injection]] | None = None,
                       decoded: "DecodedProgram | None" = None,
                       warp_batch: bool = True,
                       shadow=None,
                       ledgers: "list[Ledger | None] | None" = None,
                       ) -> LaunchStats:
        """Execute one kernel launch and return its dynamic counts.

        ``hooks`` is a list of ``(pc, Injection)`` pairs — the instrumented
        SASS the (simulated) JIT produced for this launch.  ``decoded`` is
        a pre-decoded micro-op program (see :mod:`repro.gpu.decode`); when
        given, the decoded fast path runs and ``hooks`` is ignored — the
        program carries its own fused injections.  ``warp_batch`` permits
        the warp-cohort batched engine on eligible launches.

        ``ledgers`` (observer index -> :class:`Ledger`) receive each
        observer's probe charges and deferred emissions, which the caller
        replays.  Without them the launch has one observer whose ledger
        is the returned stats (pushes are counted, payloads dropped), and
        its emissions are replayed before returning.
        """
        cbanks = ConstBanks()
        cbanks.set_params(list(params or []))
        stats = LaunchStats()
        own = ledgers is None
        if own:
            ledgers = [Ledger(stats)]
        launch = LaunchContext(
            code=code,
            global_mem=self.global_mem,
            cbanks=cbanks,
            stats=stats,
            cost=self.cost,
            grid_dim=config.grid_dim,
            block_dim=config.block_dim,
            ledgers=ledgers,
            decoded=decoded,
            warp_batch=warp_batch,
            shadow=shadow,
        )
        if decoded is None:
            for pc, inj in hooks or ():
                bucket = launch.before if inj.when == "before" \
                    else launch.after
                bucket.setdefault(pc, []).append(inj)
        # hooks=None means the launch ran the original binary; an empty
        # hook list still means the kernel was JIT-instrumented (a tool
        # that injects nothing into this kernel pays the JIT anyway).
        stats.instrumented = decoded.instrumented if decoded is not None \
            else hooks is not None
        with get_telemetry().span(SPAN_GPU_LAUNCH, kernel=code.name,
                                  grid=config.grid_dim,
                                  block=config.block_dim,
                                  instrumented=stats.instrumented) as sp:
            execute_launch(launch)
            # Emissions hold the launch: drop its ledgers so the two do
            # not form a reference cycle that only the cyclic GC frees.
            launch.ledgers = []
            if own:
                replay(ledgers[0].emissions, ledgers[0])
            sp.set(warp_instrs=stats.warp_instrs,
                   thread_instrs=stats.thread_instrs,
                   **_ledger_attrs(ledgers, stats.base_cycles))
        return stats

    def _launch_megabatch(self, code: KernelCode, config: LaunchConfig,
                          params_list: "list[list[int]]",
                          decoded: "DecodedProgram",
                          ledgers: "list[Ledger | None]",
                          shadow=None,
                          ) -> tuple[list[LaunchStats], MegaGlobalMemory]:
        """Execute N member launches of one decoded program as a single
        stacked megabatch pass (see
        :func:`repro.gpu.executor.execute_megabatch`).

        Each member gets its own constant banks (from ``params_list[m]``),
        the observer's ledger ``ledgers[m]`` (``None`` when the program
        is uninstrumented) and a private partition of a
        :class:`MegaGlobalMemory` replicated from this device's current
        memory image.  The device's own memory is untouched
        — results are read from the returned mega memory's member views,
        and the caller replays each member's emissions.
        """
        n = len(params_list)
        mega = MegaGlobalMemory(self.global_mem, n)
        ctxs = []
        for m, params in enumerate(params_list):
            cbanks = ConstBanks()
            cbanks.set_params(list(params or []))
            ctxs.append(LaunchContext(
                code=code,
                global_mem=mega.member_view(m),
                cbanks=cbanks,
                stats=LaunchStats(),
                cost=self.cost,
                grid_dim=config.grid_dim,
                block_dim=config.block_dim,
                ledgers=[] if ledgers[m] is None else [ledgers[m]],
                decoded=decoded,
                shadow=shadow,
            ))
        with get_telemetry().span(SPAN_GPU_LAUNCH, kernel=code.name,
                                  grid=config.grid_dim,
                                  block=config.block_dim,
                                  instrumented=decoded.instrumented,
                                  members=n) as sp:
            execute_megabatch(ctxs, mega)
            for ctx in ctxs:
                ctx.ledgers = []  # break the emission -> launch cycle
            sp.set(warp_instrs=sum(c.stats.warp_instrs for c in ctxs),
                   thread_instrs=sum(c.stats.thread_instrs for c in ctxs),
                   **_ledger_attrs(ledgers, sum(c.stats.base_cycles
                                                for c in ctxs)))
        return [c.stats for c in ctxs], mega


def _ledger_attrs(ledgers, base_cycles: float) -> dict:
    """``gpu.launch`` span attributes summed over the observers' ledgers
    (a ledger may share the launch's own stats)."""
    stats = [led.stats for led in ledgers if led is not None]
    return {"injected_calls": sum(st.injected_calls for st in stats),
            "channel_messages": sum(st.channel_messages for st in stats),
            "cycles": base_cycles + sum(st.injected_cycles
                                        for st in stats)}
