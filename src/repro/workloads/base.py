"""Workload model: programs, launch schedules, and build contexts.

A :class:`Program` stands for one of the paper's 151 benchmark programs.
Building it against a device produces the launch schedule its ``main()``
would issue; the schedule is what the NVBit runtime intercepts.  Programs
are built fresh per run (device memory is allocated at build time), and
may be compiled precise or with ``--use_fast_math`` for the Table 6
study.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..compiler import CompileOptions, compile_kernel
from ..compiler.dsl import KernelBuilder
from ..gpu.device import Device, LaunchConfig
from ..nvbit.runtime import LaunchSpec

__all__ = ["Program", "BuildContext", "WorkProfile"]


@dataclass(frozen=True)
class WorkProfile:
    """Performance-relevant shape of a program (drives Figures 4-6).

    The *simulated* kernel is small (``stmts`` statements, one or two
    warps); ``work_scale`` and ``launches`` extrapolate it to the
    program's modeled size.  ``fp_frac``/``fp64_frac``/``sfu_frac``
    control the instruction mix and hence how much tool overhead the
    program attracts relative to its base time.
    """

    stmts: int = 40
    fp_frac: float = 0.6
    fp64_frac: float = 0.0
    sfu_frac: float = 0.1
    mem_frac: float = 0.15
    launches: int = 4
    work_scale: int = 50
    block_dim: int = 32
    grid_dim: int = 1
    #: When > 1, the statement chain runs inside a hardware loop of this
    #: trip count (work_scale is pre-divided by it in the catalog, so the
    #: total modeled work is unchanged — only the SASS shape differs).
    loop_trip: int = 1
    #: Insert a genuinely divergent branch (SSY/BRA/SYNC) mid-kernel.
    divergent: bool = False
    #: Prepend a two-warp shared-memory tree reduction (LDS/STS +
    #: BAR.SYNC); block_dim is raised to 64 and work_scale pre-halved.
    reduction: bool = False


@dataclass
class Program:
    """One benchmark program.

    ``builder(ctx, options)`` populates the launch schedule.  ``expected``
    carries the paper's Table 4 exception counts for this program (None
    for exception-free programs); ``expected_fastmath`` the Table 6 row;
    ``expected_sampled_k64`` the Table 5 row.
    """

    name: str
    suite: str
    builder: Callable[["BuildContext", CompileOptions], None]
    open_source: bool = True
    expected: dict[str, int] | None = None
    expected_fastmath: dict[str, int] | None = None
    expected_sampled_k64: dict[str, int] | None = None
    #: Programs on which BinFPE's traffic exceeds the channel and hangs.
    binfpe_hangs: bool = False
    description: str = ""

    def build(self, device: Device,
              options: CompileOptions | None = None) -> list[LaunchSpec]:
        """Build the program against a device; returns its schedule."""
        return self.build_with_context(device, options)[0]

    def build_with_context(self, device: Device,
                           options: CompileOptions | None = None
                           ) -> tuple[list[LaunchSpec], "BuildContext"]:
        """Build and also return the context (output regions, etc.)."""
        ctx = BuildContext(device=device)
        self.builder(ctx, options or CompileOptions.precise())
        if not ctx.schedule:
            raise RuntimeError(f"{self.name}: builder produced no launches")
        return ctx.schedule, ctx

    @property
    def has_expected_exceptions(self) -> bool:
        return bool(self.expected) and any(self.expected.values())

    def __reduce__(self):
        """A registered program pickles as its registry key, so a sweep
        unit carrying it reaches a pool worker as that worker's own
        registry object (whose warm builds it reuses).  Any other
        program has no portable form: its builder is a closure."""
        from .registry import program_by_name, registry_key
        key = registry_key(self)
        if key is None:
            raise pickle.PicklingError(
                f"program {self.name!r} ({self.suite}) is not a "
                "registered program; only registered programs pickle")
        return program_by_name, (key,)


@dataclass(frozen=True)
class OutputRegion:
    """A program output buffer, scannable for escaped exceptional values
    (the Table 7 'do the exceptions matter?' question)."""

    addr: int
    count: int
    dtype: str  # "f32" | "f64"


@dataclass
class BuildContext:
    """What a program builder gets to work with."""

    device: Device
    schedule: list[LaunchSpec] = field(default_factory=list)
    outputs: list[OutputRegion] = field(default_factory=list)

    def register_output(self, addr: int, count: int, dtype: str) -> None:
        """Declare a buffer as program output (host-visible result)."""
        self.outputs.append(OutputRegion(addr, count, dtype))

    def scan_outputs(self) -> dict[str, int]:
        """Count NaN/INF values currently in the registered outputs."""
        nan = inf = 0
        for region in self.outputs:
            dtype = np.float32 if region.dtype == "f32" else np.float64
            arr = self.device.read_back(region.addr, dtype, region.count)
            nan += int(np.isnan(arr).sum())
            inf += int(np.isinf(arr).sum())
        return {"nan": nan, "inf": inf}

    def alloc_f32(self, values) -> int:
        return self.device.alloc_array(np.asarray(values, dtype=np.float32))

    def alloc_f64(self, values) -> int:
        return self.device.alloc_array(np.asarray(values, dtype=np.float64))

    def alloc_out(self, count: int, *, f64: bool = False) -> int:
        return self.device.alloc_zeros(count * (8 if f64 else 4))

    def launch(self, compiled, *, grid: int = 1, block: int = 32,
               repeat: int = 1, work_scale: int = 1, stateful: bool = False,
               **params) -> None:
        """Append one launch spec for a compiled kernel."""
        self.schedule.append(LaunchSpec(
            code=compiled.code,
            config=LaunchConfig(grid, block),
            params=tuple(compiled.param_words(**params)),
            repeat=repeat,
            work_scale=work_scale,
            stateful=stateful,
        ))


def _safe_chain_kernel(name: str, profile: WorkProfile, seed: int,
                       options: CompileOptions):
    """A numerically-safe compute kernel with the profile's mix.

    FP values stay in a bounded attractor (x <- a*x + b with |a| < 1), so
    no exceptions arise regardless of compile mode.  Non-FP statements are
    integer accumulator / memory work, so low ``fp_frac`` programs model
    the graph/sort/hash benchmarks whose BinFPE traffic is small.
    """
    from ..compiler.dsl import i32 as i32c

    rng = np.random.default_rng(seed)
    kb = KernelBuilder(name, source_file=f"{name}.cu")
    xp = kb.ptr_param("x")
    yp = kb.ptr_param("y")
    i = kb.global_idx()
    acc32 = kb.let("acc32", kb.load_f32(xp, i))
    iacc = kb.let("iacc", i + 1)
    acc64 = None
    stmts = max(2, profile.stmts)
    n_fp = max(1, round(stmts * profile.fp_frac))
    n64 = int(n_fp * profile.fp64_frac)
    n_sfu = int(n_fp * profile.sfu_frac)
    n_mem = int(stmts * profile.mem_frac)
    plan = (["f64"] * n64 + ["sfu"] * n_sfu
            + ["f32"] * max(0, n_fp - n64 - n_sfu)
            + ["mem"] * n_mem
            + ["int"] * max(0, stmts - n_fp - n_mem))
    rng.shuffle(plan)
    state = {"out_idx": 0, "acc64": acc64}

    def emit_chain(kb_):
        for j, kind in enumerate(plan):
            a = float(rng.uniform(0.3, 0.9))
            b = float(rng.uniform(0.1, 1.0))
            if kind == "f64":
                if state["acc64"] is None:
                    state["acc64"] = kb_.let("acc64", kb_.cast_f64(acc32))
                kb_.assign(state["acc64"], state["acc64"] * a + b)
            elif kind == "sfu":
                t = kb_.let(f"t{j}", acc32 * (-a / 2.0))
                kb_.assign(acc32, kb_.exp(t) * b + 0.25)
            elif kind == "f32":
                kb_.assign(acc32, acc32 * a + b)
            elif kind == "mem":
                kb_.store(yp, state["out_idx"], acc32)
                state["out_idx"] += 1
            else:
                kb_.assign(iacc, iacc * 5 + 3)

    if profile.reduction:
        # a real block reduction: 2 warps cooperating through shared
        # memory and BAR.SYNC (exercises the barrier scheduler)
        from ..compiler.dsl import i32 as _i32
        tid = kb.tid()
        buf = kb.shared_f32("buf", 2 * profile.block_dim)
        kb.store_shared(buf, tid, acc32)
        kb.barrier()
        for span in (32, 16, 8, 4, 2, 1):
            mine = kb.let(f"red_m{span}", kb.load_shared(buf, tid))
            other = kb.let(f"red_o{span}",
                           kb.load_shared(buf, _i32(span) + tid))
            with kb.if_(tid < _i32(span)):
                kb.store_shared(buf, tid, mine * 0.5 + other * 0.5)
            kb.barrier()
        kb.assign(acc32, kb.load_shared(buf, _i32(0)))
    if profile.divergent:
        # a genuinely divergent warm-up: lanes split on their input
        kb.branch(acc32 < 0.55,
                  lambda kb_: kb_.assign(acc32, acc32 * 0.5 + 0.2),
                  lambda kb_: kb_.assign(acc32, acc32 * 0.25 + 0.4))
    if profile.loop_trip > 1:
        kb.loop(profile.loop_trip, emit_chain)
    else:
        emit_chain(kb)
    acc64 = state["acc64"]
    out_idx = state["out_idx"]
    kb.store(yp, out_idx, acc32)
    if acc64 is not None:
        # fold the FP64 lane back so it is live
        kb.store(yp, out_idx + 1, kb.cast_f32(acc64))
    return compile_kernel(kb.build(), options)


def make_compute_program(name: str, suite: str, profile: WorkProfile,
                         *, seed: int, open_source: bool = True,
                         binfpe_hangs: bool = False,
                         description: str = "") -> Program:
    """A realistic, exception-free benchmark program with a given shape."""

    def builder(ctx: BuildContext, options: CompileOptions) -> None:
        if not open_source:
            options = CompileOptions(
                **{**options.__dict__, "emit_line_info": False})
        compiled = _safe_chain_kernel(name, profile, seed, options)
        n = profile.block_dim * profile.grid_dim
        x = ctx.alloc_f32(np.linspace(0.1, 1.0, n))
        y = ctx.alloc_out(max(4 * profile.stmts, 64))
        ctx.launch(compiled, grid=profile.grid_dim, block=profile.block_dim,
                   repeat=profile.launches, work_scale=profile.work_scale,
                   x=x, y=y)

    return Program(name=name, suite=suite, builder=builder,
                   open_source=open_source, binfpe_hangs=binfpe_hangs,
                   description=description or
                   f"synthetic stand-in for {suite}/{name}")
