"""Per-pc hotspot profiler: table accumulation, basic-block labeling,
hot-loop attribution on a 4-warp workload, flamegraph export, and the
``repro profile hotspots`` CLI."""

import re

import pytest

from repro.cli import main
from repro.gpu import Device
from repro.gpu import executor as _executor
from repro.harness.profile import ProfileTable, profile_pcs, render_hotspots
from repro.harness.runner import run_detector
from repro.telemetry.flame import collapsed_stacks, write_collapsed
from repro.workloads import program_by_name
from repro.workloads.base import WorkProfile, make_compute_program

#: 2 blocks x 64 threads = 128 threads = 4 warps, with the statement
#: chain inside a trip-16 hardware loop — the known hot region.
HOT4 = dict(grid_dim=2, block_dim=64, loop_trip=16)


def _hot_program(name="HOT"):
    return make_compute_program(name, "bench", WorkProfile(**HOT4), seed=7)


def _loop_body_range(program):
    """[target, backedge] pc range of the kernel's hardware loop."""
    spec = program.build(Device())[0]
    code = spec.code
    for instr in code.instructions:
        if instr.target is not None and code.target_pc(instr.pc) < instr.pc:
            return code.target_pc(instr.pc), instr.pc
    raise AssertionError("workload has no backedge")  # pragma: no cover


class TestProfileTable:
    def test_add_accumulates_exactly(self):
        table = ProfileTable()
        table.add("k", 3, "FFMA", 10.0)
        table.add("k", 3, "FFMA", 10.0, n=32)
        assert table.cycles[("k", 3)] == 20.0
        assert table.counts[("k", 3)] == 33
        assert table.opcodes[("k", 3)] == "FFMA"
        assert table.total_cycles() == 20.0

    def test_wall_sampling_every_nth_add(self):
        ticks = iter(float(i) for i in range(100))
        table = ProfileTable(sample_every=2, clock=lambda: next(ticks))
        table.add("k", 0, "A", 1.0)   # no sample
        table.add("k", 1, "B", 1.0)   # samples: attributes delta to pc 1
        table.add("k", 2, "C", 1.0)   # no sample
        table.add("k", 2, "C", 1.0)   # samples again
        assert ("k", 0) not in table.wall
        assert table.wall[("k", 1)] > 0
        assert table.wall[("k", 2)] > 0

    def test_block_of_without_code_is_zero(self):
        table = ProfileTable()
        assert table.block_of("unknown", 17) == 0

    def test_hotspots_sorted_by_cycles(self):
        table = ProfileTable()
        table.add("k", 1, "A", 5.0)
        table.add("k", 2, "B", 50.0)
        table.add("k", 3, "C", 0.5)
        assert [row[1] for row in table.hotspots()] == [2, 1, 3]
        assert [row[1] for row in table.hotspots(top=2)] == [2, 1]

    def test_profile_pcs_nests_and_restores(self):
        assert _executor._PROFILE is None
        with profile_pcs() as outer:
            assert _executor._PROFILE is outer
            with profile_pcs() as inner:
                assert _executor._PROFILE is inner
            assert _executor._PROFILE is outer
        assert _executor._PROFILE is None


class TestHotLoopAttribution:
    @pytest.fixture(scope="class")
    def profiled(self):
        program = _hot_program()
        with profile_pcs() as table:
            report, stats = run_detector(program)
        return program, table

    def test_top_pc_is_in_the_hot_loop(self, profiled):
        program, table = profiled
        lo, hi = _loop_body_range(program)
        rows = table.hotspots(top=1)
        assert rows, "profiler captured nothing"
        kernel, pc, opcode, count, cycles, wall, excep = rows[0]
        assert kernel == "HOT"
        assert lo <= pc <= hi, f"top pc {pc} outside loop [{lo}, {hi}]"
        # the loop body runs loop_trip times per visit: its counts
        # dominate any straight-line pc
        straight = [r for r in table.hotspots() if not lo <= r[1] <= hi]
        if straight:
            assert count > straight[0][3]

    def test_blocks_split_at_the_loop(self, profiled):
        program, table = profiled
        lo, hi = _loop_body_range(program)
        assert table.block_of("HOT", lo) != table.block_of("HOT", 0)
        assert table.block_of("HOT", hi + 1) > table.block_of("HOT", lo)

    def test_render_lists_top_pcs(self, profiled):
        _, table = profiled
        text = render_hotspots(table, top=5)
        assert "Hotspots" in text
        assert len(text.splitlines()) == 7  # title + header + 5 rows
        assert "no samples" not in text

    def test_render_empty_table(self):
        assert "no samples" in render_hotspots(ProfileTable())


class TestFlame:
    _LINE = re.compile(
        r"^[^;]+;block_\d+;pc_0x[0-9a-f]{4}_[^; ]+ \d+$")

    @pytest.fixture(scope="class")
    def table(self):
        with profile_pcs() as table:
            run_detector(_hot_program())
        return table

    def test_collapsed_lines_are_well_formed(self, table):
        lines = collapsed_stacks(table)
        assert lines
        for line in lines:
            assert self._LINE.match(line), line
        weights = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert weights == sorted(weights, reverse=True)

    def test_weight_selector(self, table):
        counts = collapsed_stacks(table, value="count")
        assert counts
        with pytest.raises(ValueError):
            collapsed_stacks(table, value="seconds")

    def test_write_collapsed_file(self, table, tmp_path):
        path = tmp_path / "hot.collapsed"
        n = write_collapsed(table, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == n > 0
        for line in lines:
            assert self._LINE.match(line), line

    def test_frames_sanitized(self):
        table = ProfileTable()
        table.add("weird kernel;name", 1, "OP X", 2.0)
        (line,) = collapsed_stacks(table)
        stack = line.rsplit(" ", 1)[0]
        assert ";" not in stack.replace(";", "", 2)  # only 2 separators
        assert " " not in stack


class TestExceptionAttribution:
    def test_detector_exceptions_land_on_pcs(self):
        with profile_pcs() as table:
            run_detector(program_by_name("GRAMSCHM"))
        assert sum(table.exceptions.values()) > 0
        rows = table.hotspots()
        assert any(row[6] > 0 for row in rows)
        for (kernel, pc), _n in table.exceptions.items():
            assert (kernel, pc) in table.cycles


class TestCLI:
    def test_hotspots_with_flame(self, capsys, tmp_path):
        flame = tmp_path / "out.collapsed"
        assert main(["profile", "hotspots", "GRAMSCHM",
                     "--top", "5", "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "Hotspots" in out
        assert f"wrote" in out and str(flame) in out
        assert flame.exists() and flame.read_text().strip()

    def test_hotspots_missing_program_is_usage_error(self):
        assert main(["profile", "hotspots"]) == 2

    def test_hotspots_unknown_program_is_usage_error(self):
        assert main(["profile", "hotspots", "not-a-program"]) == 2

    def test_bare_profile_form_still_works(self, capsys):
        assert main(["profile", "GRAMSCHM"]) == 0
        assert "fp density" in capsys.readouterr().out

    def test_run_profile_pcs_flag(self, capsys):
        assert main(["run", "GRAMSCHM", "--profile-pcs"]) == 0
        out = capsys.readouterr().out
        assert "Hotspots" in out

    def test_run_profile_pcs_json(self, capsys):
        import json
        assert main(["run", "GRAMSCHM", "--profile-pcs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hotspots"]
        row = payload["hotspots"][0]
        assert {"kernel", "pc", "opcode", "count", "cycles",
                "wall", "exceptions"} <= set(row)


class TestPathEquivalence:
    """The profiler must charge identical cycles/counts on every
    execution path (serial decoded, warp-cohort batched)."""

    def _profile(self, **knobs):
        with profile_pcs() as table:
            run_detector(_hot_program(), **knobs)
        return table

    def test_batched_matches_serial_decoded(self):
        batched = self._profile(warp_batch=True)
        serial = self._profile(warp_batch=False)
        assert batched.cycles == serial.cycles
        assert batched.counts == serial.counts
        assert batched.opcodes == serial.opcodes
