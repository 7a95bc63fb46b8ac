"""Differential conformance engine tests.

Four concerns:

* the pure-Python IEEE-754 oracle agrees bit-for-bit with the
  executor's NumPy helpers on exception-adjacent batteries;
* generation is deterministic and the generated programs genuinely
  exercise the warp-cohort engine (two warps, straight-line bodies);
* the differential engine passes on clean builds, catches a
  deliberately injected single-path handler bug, and shrinks it to a
  tiny reproducer;
* the checked-in regression corpus (``tests/corpus/*.json``) replays
  clean — this is the tier-1 wiring the fuzzer appends to.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.conformance import (
    Case,
    InputVec,
    OpSpec,
    dump_case,
    fuzz,
    generate_case,
    load_case,
    mutation,
    oracle_outputs,
    run_case,
    shrink_case,
)
from repro.conformance import oracle
from repro.gpu import executor
from repro.gpu.sfu import mufu_f32, mufu_rcp64h
from repro.harness.pool import pool_available
from repro.sass.program import KernelCode
from repro.telemetry import metrics_snapshot, telemetry_session
from repro.telemetry import names

needs_pool = pytest.mark.skipif(not pool_available(),
                                reason="worker pool unavailable")

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: Exception-adjacent binary32 battery (bit patterns).
F32_BATTERY = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000,
    0xFF800000, 0x7FC00000, 0xFFC00000, 0x00000001, 0x007FFFFF,
    0x80000001, 0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF,
    0x7F000000, 0x01000000, 0x34000000, 0x5F800000, 0x40490FDB,
    0x3F000000, 0xC2FE0000, 0x1F000000, 0x0B8287D6,
]
F64_BATTERY = [oracle.f64_to_bits(v) for v in (
    0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), 1e150, 9.9e149,
    -1e150, 1e300, -1e300, 5e-324, 1e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.5, 2.0,
)] + [0x7FF8000000000000, 0x7FF0000000000001, 0x000FFFFFFFFFFFFF,
     0x8000000000000001, 0x7FF00000DEADBEEF]


def _f32(bits):
    return np.uint32(bits).view(np.float32)


def _bits32(x):
    return int(np.float32(x).view(np.uint32))


def _f64(bits):
    return np.uint64(bits).view(np.float64)


def _bits64(x):
    return int(np.float64(x).view(np.uint64))


def _same32(py_val, np_val):
    a, b = oracle.f32_to_bits(py_val), _bits32(np_val)
    if oracle.is_nan32_bits(a) and oracle.is_nan32_bits(b):
        return True  # NaN payloads compare by class against the oracle
    return a == b


def _same64(py_val, np_val):
    a, b = oracle.f64_to_bits(py_val), _bits64(np_val)
    if oracle.is_nan64_bits(a) and oracle.is_nan64_bits(b):
        return True
    return a == b


class TestOracle:
    def test_round32_matches_numpy_cast(self):
        doubles = [float(_f64(b)) for b in F64_BATTERY] + \
            [1e39, -1e39, 3.5e38, 1e-46, 6e-39, 1.0 + 2**-25]
        for x in doubles:
            want = np.float64(x).astype(np.float32)
            assert _same32(oracle.round32(x), want), hex(_bits64(x))

    def test_fadd_fmul_bit_exact(self):
        for ab in F32_BATTERY:
            for bb in F32_BATTERY:
                a, b = _f32(ab), _f32(bb)
                with np.errstate(all="ignore"):
                    assert _same32(oracle.fadd32(float(a), float(b)),
                                   np.float32(a + b)), (hex(ab), hex(bb))
                    assert _same32(oracle.fmul32(float(a), float(b)),
                                   np.float32(a * b)), (hex(ab), hex(bb))

    def test_ffma_mirrors_executor(self):
        picks = F32_BATTERY[::2]
        for ab in picks:
            for bb in picks:
                for cb in (0x3F800000, 0x80000001, 0xFF800000):
                    a, b, c = (np.float32(_f32(v)) for v in (ab, bb, cb))
                    want = executor._ffma32(np.array([a]), np.array([b]),
                                            np.array([c]))[0]
                    got = oracle.ffma32(float(a), float(b), float(c))
                    assert _same32(got, want), (hex(ab), hex(bb), hex(cb))

    def test_dfma_mirrors_executor_dekker(self):
        picks = F64_BATTERY
        for ab in picks:
            for bb in (F64_BATTERY[2], F64_BATTERY[6], F64_BATTERY[11]):
                for cb in (F64_BATTERY[8], F64_BATTERY[0]):
                    a, b, c = _f64(ab), _f64(bb), _f64(cb)
                    want = executor._fma64(np.array([a]), np.array([b]),
                                           np.array([c]))[0]
                    got = oracle.dfma64(float(a), float(b), float(c))
                    assert _same64(got, want), (hex(ab), hex(bb), hex(cb))

    def test_mufu_exact_funcs_bit_exact(self):
        xs = np.array([_f32(b) for b in F32_BATTERY], dtype=np.float32)
        for func, fn in (("RCP", oracle.mufu_rcp),
                         ("RSQ", oracle.mufu_rsq),
                         ("SQRT", oracle.mufu_sqrt)):
            want = mufu_f32(func, xs)
            for bits, w in zip(F32_BATTERY, want):
                assert _same32(fn(float(_f32(bits))), w), (func, hex(bits))

    def test_mufu_approx_funcs_within_tolerance(self):
        xs = np.array([_f32(b) for b in F32_BATTERY], dtype=np.float32)
        for func, fn in (("EX2", oracle.mufu_ex2),
                         ("LG2", oracle.mufu_lg2),
                         ("SIN", oracle.mufu_sin),
                         ("COS", oracle.mufu_cos)):
            want = mufu_f32(func, xs)
            for bits, w in zip(F32_BATTERY, want):
                got = fn(float(_f32(bits)))
                gb, wb = oracle.f32_to_bits(got), _bits32(w)
                if oracle.is_nan32_bits(gb):
                    assert oracle.is_nan32_bits(wb), (func, hex(bits))
                else:
                    assert oracle.ulp_distance32(gb, wb) \
                        <= oracle.ULP_TOLERANCE, (func, hex(bits))

    def test_rcp64h_matches_sfu(self):
        highs = [b >> 32 for b in F64_BATTERY]
        want = mufu_rcp64h(np.array(highs, dtype=np.uint32))
        for high, w in zip(highs, want):
            got = oracle.mufu_rcp64h(high)
            both_nan = ((got & 0x7FF80000) == 0x7FF80000
                        and (int(w) & 0x7FF80000) == 0x7FF80000)
            assert got == int(w) or both_nan, hex(high)

    def test_classify(self):
        assert oracle.classify32(0x7FC00000) == "NAN"
        assert oracle.classify32(0xFF800000) == "INF"
        assert oracle.classify32(0x80000001) == "SUB"
        assert oracle.classify32(0x3F800000) == "VAL"
        assert oracle.classify64(0x7FF0000000000001) == "NAN"
        assert oracle.classify64(0xFFF0000000000000) == "INF"
        assert oracle.classify64(0x0000000000000001) == "SUB"
        assert oracle.classify64(0) == "VAL"

    def test_ftz_bits(self):
        assert oracle.ftz32_bits(0x80000001) == 0x80000000
        assert oracle.ftz32_bits(0x007FFFFF) == 0x00000000
        assert oracle.ftz32_bits(0x00800000) == 0x00800000
        assert oracle.ftz32_bits(0x7FC00000) == 0x7FC00000


class TestGenerator:
    def test_deterministic(self):
        a, b = generate_case(3, 5), generate_case(3, 5)
        assert a == b
        assert a.sass() == b.sass()
        assert generate_case(3, 6) != a

    def test_two_warps_so_cohort_engages(self):
        case = generate_case(1, 0)
        assert case.grid_dim * case.block_dim == 64
        assert case.block_dim == 32

    def test_body_pcs_line_up(self):
        case = generate_case(2, 9)
        code = KernelCode.assemble(case.name, case.sass())
        for pc, op in zip(case.body_pcs(), case.ops):
            assert code.instructions[pc].opcode == op.opcode

    def test_without_op_prunes_unused_inputs(self):
        case = generate_case(4, 2)
        while len(case.ops) > 1:
            case = case.without_op(len(case.ops) - 1)
        used = set(case.ops[0].srcs)
        for inp in case.inputs:
            assert used & set(inp.regs)


class TestCorpus:
    def test_corpus_not_empty(self):
        assert CORPUS_FILES, "the regression corpus must stay checked in"

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_corpus_case_replays_clean(self, path):
        case = load_case(json.loads(path.read_text()))
        outcome = run_case(case)
        assert outcome.ok, outcome.divergences[:3]

    def test_round_trip(self):
        case = generate_case(8, 1)
        assert load_case(dump_case(case, note="x")) == case

    def test_load_rejects_bad_version(self):
        data = dump_case(generate_case(8, 2))
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            load_case(data)

    def test_load_rejects_edited_sass(self):
        data = dump_case(generate_case(8, 3))
        data["sass"] = data["sass"].replace("EXIT", "NOP ;\nEXIT")
        with pytest.raises(ValueError, match="sass"):
            load_case(data)


def _ftz_divergence_case(filler_ops: int = 0) -> Case:
    """An FMUL.FTZ whose product is subnormal (2^-65 · 2^-65 = 2^-130):
    the mutated legacy path keeps the subnormal, the decoded paths flush
    it.  ``filler_ops`` benign independent ops pad the body for shrink
    tests."""
    n = 64
    inputs = [InputVec(8, "f32", (0x1F000000,) * n),
              InputVec(10, "f32", (0x1F000000,) * n)]
    ops = [OpSpec("FMUL", ("FTZ",), 12, (8, 10))]
    reg = 14
    for _ in range(filler_ops):
        inputs.append(InputVec(reg, "f32", (0x3F800000,) * n))
        ops.append(OpSpec("FADD", (), reg + 2, (reg, reg)))
        reg += 4
    return Case("ftz-divergence", 2, 32, tuple(inputs), tuple(ops))


class TestDifferential:
    def test_fuzz_serial_clean(self):
        result = fuzz(25, seed=3, jobs=1)
        assert result.ok, result.failures[:2]
        assert result.replayed > 0

    @needs_pool
    def test_fuzz_pooled_matches_in_process(self):
        result = fuzz(16, seed=5, jobs=2, replay_stride=4)
        assert result.ok, result.failures[:2]
        assert result.jobs == 2
        assert result.replayed == 4

    def test_oracle_outputs_cover_all_ops(self):
        case = generate_case(6, 4)
        outs = oracle_outputs(case)
        assert len(outs) == len(case.ops)
        assert all(len(lanes) == case.n_threads for lanes in outs)

    def test_clean_case_counts_ok(self):
        with telemetry_session() as tel:
            assert run_case(generate_case(7, 1)).ok
            snap = metrics_snapshot(tel)
        assert snap["counters"][names.CTR_CONFORMANCE_OK] == 1
        assert names.CTR_CONFORMANCE_DIVERGED not in snap["counters"]

    def test_injected_bug_is_caught(self):
        case = _ftz_divergence_case()
        assert run_case(case).ok  # clean build: all paths agree
        with telemetry_session() as tel:
            with mutation("legacy-fp32-drop-ftz-flush"):
                outcome = run_case(case)
            events = tel.events_named(names.EVT_CONFORMANCE_DIVERGENCE)
            snap = metrics_snapshot(tel)
        assert not outcome.ok
        joined = "\n".join(outcome.divergences)
        assert "decoded vs legacy" in joined     # paths disagree
        assert "oracle vs legacy" in joined      # and the oracle says so
        assert snap["counters"][names.CTR_CONFORMANCE_DIVERGED] == 1
        assert events and events[0]["case"] == case.name

    def test_injected_bug_shrinks_to_tiny_reproducer(self):
        case = _ftz_divergence_case(filler_ops=6)
        assert len(case.ops) == 7
        with mutation("legacy-fp32-drop-ftz-flush"):
            shrunk = shrink_case(case)
            assert not run_case(shrunk).ok
        # the acceptance bar is <= 5 body instructions; greedy removal
        # should strip every filler op and land on the FMUL.FTZ alone
        assert len(shrunk.ops) <= 5
        assert [op.opcode for op in shrunk.ops] == ["FMUL"]
        assert run_case(shrunk).ok  # clean again without the mutation

    def test_mutated_fuzz_finds_divergences(self):
        result = fuzz(64, seed=11, jobs=1,
                      mutations=("legacy-fp32-drop-ftz-flush",))
        assert not result.ok
        assert all("legacy" in d for f in result.failures
                   for d in f["divergences"][:1])

    def test_shrink_requires_divergence(self):
        with pytest.raises(ValueError, match="does not diverge"):
            shrink_case(_ftz_divergence_case())

    def test_mutation_flags_restored(self):
        assert not executor._MUTATIONS
        with pytest.raises(RuntimeError):
            with mutation("legacy-fp32-drop-ftz-flush"):
                raise RuntimeError("boom")
        assert not executor._MUTATIONS

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            with mutation("no-such-flag"):
                pass
