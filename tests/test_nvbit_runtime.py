"""ToolRuntime tests: interception, caching, work scaling, JIT charging."""

import dataclasses

import numpy as np
import pytest

from repro.fpx import DetectorConfig, FPXAnalyzer, FPXDetector
from repro.gpu import Device, LaunchConfig
from repro.harness.profile import _CountingTool
from repro.nvbit import (InstrumentationPlan, LaunchSpec, NVBitTool,
                         PlannedInjection, SassTracer)
from repro.sass import KernelCode
from tests.util import RecBinFPE, RecDetector, make_runtime, stats_fields

KERNEL = KernelCode.assemble("k", """
    FADD R1, RZ, 1.0 ;
    FMUL R2, R1, 2.0 ;
    EXIT ;
""")

EXC_KERNEL = KernelCode.assemble("k_exc", """
    FADD R1, RZ, +INF ;
    EXIT ;
""")


def spec(kernel=KERNEL, **kw):
    return LaunchSpec(kernel, LaunchConfig(1, 32), (), **kw)


class RecordingTool(NVBitTool):
    """Counts instrumentation decisions and actual simulations."""

    def __init__(self, decide=None):
        self.decisions = []
        self.instrument_calls = 0
        self.received = []
        self._decide = decide or (lambda i: True)

    def should_instrument(self, kernel_name):
        result = self._decide(len(self.decisions))
        self.decisions.append(result)
        return result

    def plan_kernel(self, code):
        self.instrument_calls += 1
        return InstrumentationPlan(self.name, code.name, ())

    def receive(self, messages):
        self.received.extend(messages)


class TestInterception:
    def test_should_instrument_called_per_logical_invocation(self):
        tool = RecordingTool()
        runtime = make_runtime(Device(), tool)
        runtime.run_program([spec(repeat=10)])
        assert len(tool.decisions) == 10

    def test_instrumented_sass_cached_per_kernel(self):
        """NVBit instruments a kernel's SASS once; JIT cost is charged
        per launch, but the tool callback runs once."""
        tool = RecordingTool()
        runtime = make_runtime(Device(), tool)
        runtime.run_program([spec(repeat=50)])
        assert tool.instrument_calls == 1
        assert runtime.run.instrumented_launches == 50

    def test_jit_charged_only_for_instrumented_launches(self):
        tool = RecordingTool(decide=lambda i: i % 2 == 0)
        runtime = make_runtime(Device(), tool)
        runtime.run_program([spec(repeat=10)])
        assert runtime.run.instrumented_launches == 5
        jit_per = (runtime.run.cost.jit_base_cycles
                   + runtime.run.cost.jit_per_instr_cycles * len(KERNEL))
        assert runtime.run.jit_cycles == pytest.approx(5 * jit_per)

    def test_no_tool_no_jit(self):
        runtime = make_runtime(Device(), None)
        runtime.run_program([spec(repeat=5)])
        assert runtime.run.jit_cycles == 0
        assert runtime.run.launches == 5


#: Two warps per block; thread 40 divides by zero (INF, then NaN from
#: INF*0) and every lane overflows, so every tool emits.
REPLAY_KERNEL = KernelCode.assemble("replay_k", """
    S2R R0, SR_TID.X ;
    I2F R1, R0 ;
    FADD R2, R1, -40.0 ;
    MUFU.RCP R3, R2 ;
    FMUL R4, R3, 0.0 ;
    FADD R5, R1, 3e38 ;
    FMUL R6, R5, 2.0 ;
    EXIT ;
""")

#: Every tool in the repository.
ALL_TOOLS = {
    "detector": RecDetector,
    "detector-no-gt": lambda: RecDetector(DetectorConfig(use_gt=False)),
    "binfpe": RecBinFPE,
    "analyzer": FPXAnalyzer,
    "tracer": lambda: SassTracer(capture_values=True),
    "counting": _CountingTool,
}


def _tool_state(tool):
    """The host-side state a tool exposes (with its channel stream)."""
    if isinstance(tool, FPXAnalyzer):
        return tool.to_json(), tool.events_json(), tool.report_lines()
    if isinstance(tool, SassTracer):
        return tool.entries, dict(tool.opcode_counts)
    if isinstance(tool, _CountingTool):
        return dict(tool.category_counts), dict(tool.opcode_counts)
    return tool.report().to_json(), tool.report().lines(), tool.messages


class TestRepeatCaching:
    def test_repeat_equals_explicit_loop(self):
        """A stateless ``repeat=N`` spec executes once and replays its
        warm invocation.  For every tool and engine, its ``RunStats``
        must equal N explicit launches, and the tool's state and channel
        stream must equal two explicit launches (a cold and a warm
        one)."""
        one = LaunchSpec(REPLAY_KERNEL, LaunchConfig(2, 64))
        for kind, make in ALL_TOOLS.items():
            for warp_batch in (True, False):
                def run(specs):
                    tool = make()
                    runtime = make_runtime(Device(), tool,
                                           warp_batch=warp_batch)
                    runtime.run_program(specs)
                    return tool, stats_fields(runtime.run)

                label = f"{kind}, warp_batch={warp_batch}"
                repeated, stats = run([dataclasses.replace(one, repeat=5)])
                assert stats == run([one] * 5)[1], label
                assert _tool_state(repeated) == \
                    _tool_state(run([one] * 2)[0]), label

    def test_warm_gt_repeat_messages(self):
        """With GT, repeated identical launches send the record once —
        the cached-repeat path must preserve that."""
        det = FPXDetector()
        runtime = make_runtime(Device(), det)
        runtime.run_program([LaunchSpec(EXC_KERNEL, LaunchConfig(1, 32),
                                        (), repeat=100)])
        assert runtime.run.channel_messages == 1
        assert det.report().total() == 1

    def test_no_gt_repeat_messages_scale(self):
        det = FPXDetector(DetectorConfig(use_gt=False))
        runtime = make_runtime(Device(), det)
        runtime.run_program([LaunchSpec(EXC_KERNEL, LaunchConfig(1, 32),
                                        (), repeat=100)])
        assert runtime.run.channel_messages == 100 * 32

    def test_stateful_runs_each_invocation(self):
        """Stateful launches are simulated one by one (state evolves)."""
        device = Device()
        addr = device.alloc_array(np.zeros(1, dtype=np.float32))
        counter = KernelCode.assemble("counting", """
            MOV R2, c[0x0][0x160] ;
            LDG.E R3, [R2] ;
            FADD R3, R3, 1.0 ;
            STG.E R3, [R2] ;
            EXIT ;
        """)
        runtime = make_runtime(device, None)
        runtime.run_program([LaunchSpec(counter, LaunchConfig(1, 32),
                                        (addr,), repeat=7, stateful=True)])
        assert device.read_back(addr, np.float32, 1)[0] == 7.0


class TestWorkScale:
    def test_scales_dynamic_counts(self):
        r1 = make_runtime(Device(), None)
        r1.run_program([spec()])
        r2 = make_runtime(Device(), None)
        r2.run_program([spec(work_scale=10)])
        assert r2.run.warp_instrs == 10 * r1.run.warp_instrs

    def test_does_not_scale_jit(self):
        t1, t2 = RecordingTool(), RecordingTool()
        r1 = make_runtime(Device(), t1)
        r1.run_program([spec()])
        r2 = make_runtime(Device(), t2)
        r2.run_program([spec(work_scale=10)])
        assert r1.run.jit_cycles == r2.run.jit_cycles

    def test_gt_messages_not_scaled(self):
        """A bigger grid hits the same sites: GT traffic is unchanged."""
        det = FPXDetector()
        runtime = make_runtime(Device(), det)
        runtime.run_program([LaunchSpec(EXC_KERNEL, LaunchConfig(1, 32),
                                        (), work_scale=1000)])
        assert runtime.run.channel_messages == 1

    def test_binfpe_messages_scaled(self):
        from repro.binfpe import BinFPE
        tool = BinFPE()
        runtime = make_runtime(Device(), tool)
        runtime.run_program([LaunchSpec(EXC_KERNEL, LaunchConfig(1, 32),
                                        (), work_scale=1000)])
        assert runtime.run.channel_messages == 32 * 1000


class TestContextLifecycle:
    def test_on_context_start_called_once(self):
        calls = []

        class T(RecordingTool):
            def on_context_start(self, run):
                calls.append(run)

        runtime = make_runtime(Device(), T())
        runtime.run_program([spec(), spec(), spec()])
        assert len(calls) == 1

    def test_channel_drained_to_tool(self):
        class T(RecordingTool):
            def plan_kernel(self, code):
                def push(ictx):
                    ictx.push_message(("hello", ictx.instr.opcode), 8)
                return InstrumentationPlan(
                    self.name, code.name,
                    (PlannedInjection(0, "after", push),))

        tool = T()
        make_runtime(Device(), tool).run_program([spec()])
        assert ("hello", "FADD") in tool.received
