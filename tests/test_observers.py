"""One execution, many observers.

A session with several tools runs each launch once; every observer must
still see exactly what its own solo session sees: the same report, the
same ``RunStats`` (every field) and the same channel stream.  (That a
repeated stateless launch's warm invocation, a replay, equals a second
launch is ``TestRepeatCaching`` in ``test_nvbit_runtime.py``.)
"""

import pytest

from repro.api import Session
from repro.compiler import CompileOptions
from repro.conformance.corpus import default_corpus_dir, load_corpus
from repro.conformance.engine import _case_device
from repro.fpx import AnalyzerConfig, DetectorConfig, FPXAnalyzer, \
    FPXDetector
from repro.gpu import LaunchConfig
from repro.harness.figures import FIGURE6_PROGRAMS
from repro.harness.runner import build_program
from repro.nvbit import LaunchSpec
from repro.sass import KernelCode
from repro.workloads import all_programs, program_by_name
from tests.util import RecBinFPE, RecDetector, stats_fields


def _observation(session: Session, i: int, tool):
    """Everything observer ``i`` of ``session`` can show a user."""
    stats = stats_fields(session.observer_stats(i))
    if tool is None:
        return stats
    if isinstance(tool, FPXAnalyzer):
        return (stats, tool.to_json(), tool.events_json(),
                tool.report_lines(), dict(tool.state_counts))
    report = session.report(observer=i)
    return (stats, report.to_json(), report.lines(), tool.messages)


def _observe(device_factory, schedule, factories, **knobs) -> list:
    tools = [make() for make in factories]
    session = Session(tools, device=device_factory(), **knobs)
    session.run_schedule(schedule)
    return [_observation(session, i, t) for i, t in enumerate(tools)]


def _assert_fused_equals_solo(device_factory, schedule, factories,
                              label, **knobs):
    fused = _observe(device_factory, schedule, factories, **knobs)
    for i, make in enumerate(factories):
        solo = _observe(device_factory, schedule, [make], **knobs)[0]
        assert fused[i] == solo, f"{label}: observer {i} differs from " \
                                 f"its solo run"


#: The Figure 4/5 configurations.
FIG45 = (lambda: None, RecBinFPE,
         lambda: RecDetector(DetectorConfig(use_gt=False)),
         lambda: RecDetector(DetectorConfig(use_gt=True)))


def _built_factory(program, options):
    built = build_program(program, options=options)
    return (lambda: built.fresh().device), built.schedule


@pytest.mark.parametrize("name", [p.name for p in all_programs()])
def test_fig45_fused_equals_solo(name):
    """All 151 programs, precise and fast-math."""
    program = program_by_name(name)
    for options in (CompileOptions.precise(), CompileOptions.fast_math()):
        device, schedule = _built_factory(program, options)
        fused = _observe(device, schedule, FIG45)
        for i, make in enumerate(FIG45):
            assert fused[i] == _observe(device, schedule, [make])[0], \
                f"{name}/{options}: observer {i}"


def test_corpus_cases_fused_equals_solo():
    cases = load_corpus(default_corpus_dir())
    assert cases
    for case in cases:
        code = KernelCode.assemble(case.name, case.sass())

        def device(case=case):
            return _case_device(case)[0]

        params = _case_device(case)[1]
        schedule = [LaunchSpec(code, LaunchConfig(case.grid_dim,
                                                  case.block_dim),
                               tuple(params))]
        _assert_fused_equals_solo(device, schedule, FIG45, case.name)


def _sampled(*factors):
    """Detectors at each FREQ-REDN-FACTOR in ``factors``."""
    return tuple(
        (lambda k=k: RecDetector(DetectorConfig(freq_redn_factor=k)))
        for k in factors)


@pytest.mark.parametrize("name", FIGURE6_PROGRAMS)
def test_sampling_factors_share_a_pass(name):
    """Detectors with different Algorithm-3 decisions observe one
    execution and each matches its solo run: k = 0, 4, 64 beside the
    baseline, and the full evaluation's precise session of a Figure 6
    program (the Figure 4/5 observers plus k = 4, 16, 64, 256)."""
    device, schedule = _built_factory(program_by_name(name), None)
    for factories in ((lambda: None,) + _sampled(0, 4, 64),
                      FIG45 + _sampled(4, 16, 64, 256)):
        _assert_fused_equals_solo(device, schedule, factories, name)


@pytest.mark.parametrize("name", ("GRAMSCHM", "SRU-Example", "myocyte",
                                  "LULESH", "CuMF-Movielens"))
def test_analyzer_observer_forces_serial_engine(name):
    """An analyzer observer (no cohort probe) puts every observer of the
    pass on the serial engine; each still matches its solo run."""
    device, schedule = _built_factory(program_by_name(name), None)
    _assert_fused_equals_solo(
        device, schedule,
        (lambda: None, lambda: FPXAnalyzer(AnalyzerConfig()), RecBinFPE,
         RecDetector), name)


@pytest.mark.parametrize("order", [FIG45, FIG45[::-1]],
                         ids=["baseline-first", "baseline-last"])
@pytest.mark.parametrize("path", [
    {"warp_batch": True}, {"warp_batch": False}])
def test_every_engine_routes_observers(path, order):
    device, schedule = _built_factory(program_by_name("GRAMSCHM"), None)
    _assert_fused_equals_solo(device, schedule, order, str(path), **path)


@pytest.mark.parametrize("name", ("shadow-cancel", "shadow-gmres"))
def test_shadow_sections_fused_equals_solo(name):
    """Both shadow workloads launch with ``repeat=2``: every observer's
    tracker sees the execution as often as its solo run simulates it."""
    device, schedule = _built_factory(program_by_name(name), None)
    _assert_fused_equals_solo(device, schedule, FIG45, name, shadow=True)


#: ``shadow-cancel`` under the detector with the shadow plane on: its
#: ``repeat=2`` launch is accounted cold and warm, so each of the 6,464
#: comparisons of the execution counts twice.
SHADOW_CANCEL_CHECKS = 12928
SHADOW_CANCEL_RECORDS = [(14, 64, 1112080384)]


def test_shadow_cancel_section_pinned():
    """The detector's shadow section on ``shadow-cancel``, checks
    included, as one execution per invocation reported it."""
    device, schedule = _built_factory(program_by_name("shadow-cancel"),
                                      None)
    session = Session(FPXDetector(), device=device(), shadow=True)
    session.run_schedule(schedule)
    shadow = session.report().shadow.to_json()
    assert shadow["checks"] == SHADOW_CANCEL_CHECKS
    assert [(r["classification"]["pc"], r["count"], r["max_ulp"])
            for r in shadow["records"]] == SHADOW_CANCEL_RECORDS



def test_run_batch_refuses_several_observers():
    session = Session([None, FPXDetector()])
    code = KernelCode.assemble("k", "FADD R1, RZ, 1.0 ;\nEXIT ;")
    spec = LaunchSpec(code, LaunchConfig(1, 32))
    with pytest.raises(ValueError):
        session.run_batch([spec, spec])


def test_report_names_the_observer_without_a_tool():
    session = Session([None, FPXDetector()])
    with pytest.raises(RuntimeError, match="observer 0"):
        session.report(observer=0)
    assert session.report(observer=1).total() == 0


# -- replayed emissions keep canonical order --------------------------------

#: Two warps per block; thread 40 (warp 1) divides by zero.
_KERNEL = KernelCode.assemble("order_k", """
    S2R R0, SR_TID.X ;
    I2F R1, R0 ;
    FADD R2, R1, -40.0 ;
    MUFU.RCP R3, R2 ;
    FMUL R4, R3, 0.0 ;
    FADD R5, R1, 3e38 ;
    FMUL R6, R5, 2.0 ;
    EXIT ;
""")


@pytest.mark.parametrize("warp_batch", [True, False])
def test_emissions_replay_in_canonical_order(warp_batch):
    """Replayed emissions keep (block, warp, program order): BinFPE ships
    one message per FP instruction per warp, and only warp 1 of each
    block holds the zero divisor."""
    tool = RecBinFPE()
    Session(tool, warp_batch=warp_batch).run_schedule(
        [LaunchSpec(_KERNEL, LaunchConfig(2, 64))])
    fp_pcs = [2, 3, 4, 5, 6]
    assert [tool.sites.site(m[1]).pc for m in tool.messages] == fp_pcs * 4
    rcp = [m[3] for m in tool.messages[1::5]]  # MUFU.RCP, per warp
    assert [bool(counts) for counts in rcp] == [False, True, False, True]
