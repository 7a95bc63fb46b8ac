"""The supported entry point for running programs under tools.

:class:`Session` owns one simulated device and one
:class:`~repro.nvbit.runtime.ToolRuntime`, and is the only sanctioned
way to construct either::

    from repro.api import Session
    from repro.fpx import FPXDetector
    from repro.workloads import program_by_name

    session = Session(tool=FPXDetector())
    stats = session.run(program_by_name("myocyte"))
    print(session.report().lines())

Several tools can watch one execution: ``Session(tool=[None, BinFPE(),
FPXDetector()])`` runs each launch once and gives every entry — an
observer, ``None`` being the uninstrumented baseline — the stats,
channel stream and report its own solo session would produce
(:meth:`Session.observer_stats`, ``report(observer=i)``).

The pre-facade entry points — ``Device.launch_raw`` and direct
``ToolRuntime(...)`` construction — completed their deprecation cycle
and now raise :class:`RuntimeError` with directions here.

Knobs: ``warp_batch=False`` forces the serial per-warp engine instead
of the warp-cohort batched executor (``--no-warp-batch``);
``megabatch=False`` makes :meth:`Session.run_batch` take the serial
member loop (``--no-megabatch``).  Both default on and both are
bit-exact: reports, stats and channel streams are identical either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gpu.cost import CostModel, RunStats
from .gpu.device import Device
from .gpu.shadow import normalize_shadow
from .nvbit.runtime import LaunchSpec, ToolRuntime
from .nvbit.tool import NVBitTool

if TYPE_CHECKING:  # pragma: no cover
    from .compiler import CompileOptions
    from .workloads.base import Program

__all__ = ["EXECUTION_PATHS", "Session"]

#: The in-process execution paths a launch can take, as
#: ``name -> Session keyword arguments``.  ``decoded`` is the serial
#: pre-decoded micro-op pipeline, ``cohort`` the warp-batched engine
#: (which engages on multi-warp launches and falls back to ``decoded``
#: otherwise), ``megabatch`` the launch-batched engine reached through
#: :meth:`Session.run_batch` (N independent launches stacked into one
#: pass).  The remaining path — the process-pool sweep — is not a
#: Session knob but a :func:`repro.harness.parallel.run_sweep` fan-out
#: over sessions; :mod:`repro.conformance` exercises all four.
EXECUTION_PATHS: dict[str, dict] = {
    "decoded": {"warp_batch": False},
    "cohort": {"warp_batch": True},
    "megabatch": {"warp_batch": True, "megabatch": True},
}


class Session:
    """One device, one or more observers, one runtime.

    Parameters
    ----------
    tool:
        The :class:`~repro.nvbit.tool.NVBitTool` to attach, ``None``
        for an uninstrumented baseline run, or a list of either: one
        observer per entry, all watching one execution of each launch.
        ``tool``, :attr:`stats` and ``report()`` default to observer 0.
    device:
        A pre-built :class:`~repro.gpu.device.Device` to run on (e.g. a
        harness build replayed under several tools).  Default: a fresh
        device.
    cost:
        Cost model for the fresh device; mutually exclusive with
        ``device``.
    warp_batch:
        ``False`` disables the warp-cohort batched executor.
    megabatch:
        ``False`` makes :meth:`run_batch` always take the serial
        member-by-member loop instead of the launch-batched stacked
        engine.
    shadow:
        Enables the shadow-precision execution plane
        (:mod:`repro.gpu.shadow`): every FP32 op is re-executed in
        binary64 and every FP64 op in exact rational arithmetic, and
        results that silently drift past the ULP threshold are recorded
        in the report's ``shadow`` field.  Pass ``True`` (default
        threshold), an integer ULP threshold, or a
        :class:`~repro.fpx.shadow.ShadowConfig`.  ``None`` inherits the
        process default (``set_default_shadow``, the CLI's ``--shadow``);
        ``False`` forces it off.  The shadow never perturbs primary
        results — reports and stats stay bit-identical.
    serve_metrics:
        A port number starts a live Prometheus ``/metrics`` endpoint
        (:class:`~repro.telemetry.server.MetricsServer`) for this
        session's lifetime — ``0`` binds an ephemeral port, readable
        from ``session.metrics_server.port``.  Call :meth:`close` (or
        use the session as a context manager) to stop it.
    pool:
        Installs a persistent warm worker pool
        (:mod:`repro.harness.pool`) for this session's lifetime: every
        ``run_sweep``-based API (tables, figures, conformance fuzzing)
        called while the session is open reuses it — even at
        ``jobs=1``.  Pass an integer worker count (shares the
        process-wide pool, grown to that size), or a pre-built
        :class:`~repro.harness.pool.WorkerPool`.  :meth:`close`
        uninstalls (but does not shut down) the pool, so warm caches
        survive into the next session.
    """

    def __init__(self, tool: NVBitTool | None = None,
                 device: Device | None = None, *,
                 cost: CostModel | None = None,
                 warp_batch: bool = True,
                 megabatch: bool = True,
                 shadow=None,
                 serve_metrics: int | None = None,
                 pool: "int | object | None" = None) -> None:
        if device is None:
            device = Device(cost=cost) if cost is not None else Device()
        elif cost is not None:
            raise ValueError("pass either a pre-built device or a cost "
                             "model, not both")
        self.device = device
        tools = list(tool) if isinstance(tool, (list, tuple)) else [tool]
        #: Observer 0's tool.
        self.tool = tools[0] if tools else None
        shadow_cfg = normalize_shadow(shadow)
        trackers = [None] * len(tools)
        if shadow_cfg is not None:
            from .fpx.shadow import ShadowTracker
            trackers = [ShadowTracker(shadow_cfg) for _ in tools]
        #: Observer 0's :class:`~repro.fpx.shadow.ShadowTracker`, or
        #: ``None`` when the shadow plane is off.
        self.shadow_tracker = trackers[0] if trackers else None
        self.runtime = ToolRuntime(device, tools,
                                   warp_batch=warp_batch,
                                   megabatch=megabatch,
                                   shadow=shadow_cfg,
                                   shadow_trackers=trackers,
                                   _via_session=True)
        #: The live exposition server, when ``serve_metrics`` was given.
        self.metrics_server = None
        if serve_metrics is not None:
            from .telemetry.server import MetricsServer
            self.metrics_server = MetricsServer(
                port=serve_metrics).start()
        #: The installed worker pool, when ``pool`` was given.
        self.pool = None
        if pool is not None:
            from .harness import pool as pool_mod
            self.pool = pool_mod.get_pool(pool) \
                if isinstance(pool, int) else pool
            pool_mod.install_pool(self.pool)

    def close(self) -> None:
        """Release session-owned services (metrics server, pool pin).

        The pool itself is left running — its warm caches are the
        point — and is reaped by ``shutdown_pool`` at interpreter exit
        (or explicitly by the caller for a private pool).
        """
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        if self.pool is not None:
            from .harness import pool as pool_mod
            pool_mod.uninstall_pool(self.pool)
            self.pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def stats(self) -> RunStats:
        """Observer 0's accumulated run statistics so far."""
        return self.runtime.run

    def observer_stats(self, observer: int) -> RunStats:
        """Observer ``observer``'s accumulated run statistics so far."""
        return self.runtime.observers[observer].run

    def run(self, program: "Program",
            options: "CompileOptions | None" = None) -> RunStats:
        """Build ``program`` on this session's device and run its schedule."""
        schedule = program.build(self.device, options)
        return self.run_schedule(schedule)

    def run_schedule(self, schedule: list[LaunchSpec]) -> RunStats:
        """Run an already-built launch schedule (end-of-program hooks
        run); returns observer 0's stats."""
        return self.runtime.run_program(schedule)

    def launch(self, spec: LaunchSpec) -> None:
        """Run one launch spec (all its repeats) and account its costs.

        Unlike :meth:`run`/:meth:`run_schedule` this does not fire the
        tool's ``on_program_end`` hook — call :meth:`finish` when done.
        """
        self.runtime.launch(spec)

    def run_batch(self, specs: list[LaunchSpec]):
        """Run N *independent* launches of the same kernel as one batch.

        Eligible batches (same kernel and geometry, ``repeat == 1``,
        cohort-ready program, member-aware tool) execute on the stacked
        megabatch engine — one pass over an ``(N x warps, 32)`` register
        plane — with per-member reports, channel streams and stats
        byte-identical to N serial launches; ineligible batches fall
        back to the serial member loop (``megabatch.fallback``).
        Returns a :class:`~repro.nvbit.runtime.BatchResult`; per-member
        tool state is read via :meth:`report` with ``member=``.  Like
        :meth:`launch`, this does not fire ``on_program_end``.  A
        session with several observers raises :class:`ValueError`.
        """
        return self.runtime.run_batch(specs)

    def finish(self) -> RunStats:
        """Fire every tool's end-of-program hook; returns observer 0's
        run stats."""
        self.runtime.finish()
        return self.runtime.run

    def report(self, member: int | None = None, observer: int = 0):
        """Observer ``observer``'s tool report (e.g. an
        ``ExceptionReport``), with its shadow findings attached.

        ``member`` selects one member launch of a preceding
        :meth:`run_batch` (binds the member-aware tool to it first).
        """
        obs = self.runtime.observers[observer]
        tool, tracker = obs.tool, obs.shadow_tracker
        if tool is None:
            raise RuntimeError(f"observer {observer} of this session has "
                               "no tool attached")
        if member is not None:
            tool.bind_member(member)
            if tracker is not None:
                tracker.bind_member(member)
        report = tool.report()
        if tracker is not None:
            try:
                report.shadow = tracker.report()
            except AttributeError:
                pass  # non-dataclass tool reports stay shadow-less
        return report
