"""No public runner leaves cyclic garbage behind.

Every build's instructions, operands, decoded ops and closures, every
finished telemetry registry, and a job service that has shut down must
die by reference count the moment the last user drops them.  Anything that forms a reference cycle instead
waits for the cyclic collector, which then walks every live object each
time it runs.  Each case runs its entry point once to warm the
process-wide caches, then again with the collector off and
``gc.DEBUG_SAVEALL`` on, and requires that the collection afterwards
finds no object of a ``repro`` type.  (Objects of other types are only
named: a stray thread of another test may leave some.)
"""

import collections
import gc

import pytest

from repro.api import Session
from repro.compiler import CompileOptions, KernelBuilder, compile_kernel
from repro.fpx import DetectorConfig, FPXDetector
from repro.fpx.diagnosis import diagnose
from repro.gpu import LaunchConfig
from repro.harness.runner import (
    measure_slowdowns,
    run_analyzer,
    run_binfpe,
    run_detector,
    run_workload_json,
)
from repro.nvbit import LaunchSpec
from repro.serve import JobService
from repro.telemetry import telemetry_session
from repro.workloads import program_by_name
from repro.workloads.repairs import strategy_for


def _type_name(obj) -> str:
    t = type(obj)
    return f"{t.__module__}.{t.__qualname__}"


def _cyclic_garbage(fn) -> list:
    """Run ``fn`` twice; return what the cyclic collector found after
    the second run."""
    fn()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _gramschm():
    return program_by_name("GRAMSCHM")


def _in_telemetry_session():
    with telemetry_session():
        run_detector(_gramschm())


def _batch_of_three():
    kb = KernelBuilder("divk")
    a = kb.f32_param("a")
    b = kb.f32_param("b")
    out = kb.ptr_param("out")
    kb.store(out, kb.global_idx(), a / b)
    compiled = compile_kernel(kb.build())
    session = Session(FPXDetector())
    specs = []
    for divisor in (1.0, 0.0, -0.0):
        buf = session.device.alloc_zeros(4 * 32)
        specs.append(LaunchSpec(compiled.code, LaunchConfig(1, 32), tuple(
            compiled.param_words(a=3.0, b=divisor, out=buf))))
    result = session.run_batch(specs)
    assert result.engine == "megabatch"
    for member in range(len(specs)):
        session.report(member=member)


def _job_service():
    """A started service that ran one workload job, then shut down."""
    with JobService() as service:
        job = service.submit({"workload": "GRAMSCHM"})
        assert job.wait(60) and job.status == "done"


RUNNERS = {
    "measure_slowdowns": lambda: measure_slowdowns(_gramschm()),
    "run_detector": lambda: run_detector(_gramschm()),
    "run_detector-fast-math": lambda: run_detector(
        _gramschm(), options=CompileOptions.fast_math()),
    "run_detector-k64": lambda: run_detector(
        _gramschm(), config=DetectorConfig(freq_redn_factor=64)),
    "run_binfpe": lambda: run_binfpe(program_by_name("myocyte")),
    "run_analyzer": lambda: run_analyzer(_gramschm()),
    "run_detector-shadow": lambda: run_detector(
        program_by_name("shadow-cancel"), shadow=True),
    "run_workload_json": lambda: run_workload_json("GRAMSCHM"),
    "diagnose": lambda: diagnose(_gramschm(), strategy_for("GRAMSCHM")),
    "run_batch": _batch_of_three,
    "telemetry_session": _in_telemetry_session,
    "job_service": _job_service,
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_leaves_no_cyclic_garbage(name):
    garbage = _cyclic_garbage(RUNNERS[name])
    ours = [o for o in garbage if _type_name(o).startswith("repro.")]
    common = collections.Counter(map(_type_name, garbage)).most_common(8)
    assert not ours, (f"{name} left {len(garbage)} objects of cyclic "
                      f"garbage, {len(ours)} of repro types; "
                      f"commonest: {common}")
