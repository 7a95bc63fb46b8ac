"""CLI tests.

Includes the exit-code contract (0 success, 1 tool/run error, 2 usage
error) and the shared option group every subcommand must accept:
``--jobs --trace --events --metrics --no-warp-batch``.
"""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 151
        assert "myocyte" in out

    def test_suite_filter(self, capsys):
        assert main(["list", "--suite", "ECP"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 7
        assert "Laghos" in out


class TestRun:
    def test_detector(self, capsys):
        assert main(["run", "GRAMSCHM"]) == 0
        out = capsys.readouterr().out
        assert "#GPU-FPX LOC-EXCEP INFO" in out
        assert "DIV0" in out
        assert "slowdown" in out

    def test_unknown_program(self, capsys):
        assert main(["run", "not-a-program"]) == 2

    def test_fast_math(self, capsys):
        assert main(["run", "cfd", "--fast-math"]) == 0
        out = capsys.readouterr().out
        assert "0 unique exception records" in out

    def test_binfpe_tool(self, capsys):
        assert main(["run", "LU", "--tool", "binfpe"]) == 0
        out = capsys.readouterr().out
        assert "exception records" in out

    def test_analyzer_tool(self, capsys):
        assert main(["run", "GRAMSCHM", "--tool", "analyzer",
                     "--report-lines", "3"]) == 0
        out = capsys.readouterr().out
        assert "#GPU-FPX-ANA" in out

    def test_sampling_flag(self, capsys):
        assert main(["run", "CuMF-Movielens",
                     "--freq-redn-factor", "256"]) == 0
        out = capsys.readouterr().out
        assert "31 unique exception records" in out

    def test_whitelist(self, capsys):
        """White-listing a non-existent kernel disables detection."""
        assert main(["run", "GRAMSCHM", "--whitelist", "other_kernel"]) == 0
        out = capsys.readouterr().out
        assert "0 unique exception records" in out


class TestDiagnose:
    def test_diagnose(self, capsys):
        assert main(["diagnose", "GRAMSCHM"]) == 0
        out = capsys.readouterr().out
        assert "diagnosed: yes" in out
        assert "fixed:     yes" in out

    def test_diagnose_expert_case(self, capsys):
        assert main(["diagnose", "HPCG"]) == 0
        out = capsys.readouterr().out
        assert "diagnosed: no" in out


class TestTables:
    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "26/26 rows identical" in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "3/3 rows identical" in capsys.readouterr().out

    def test_bad_table(self, capsys):
        assert main(["table", "9"]) == 2


_SUBCOMMANDS = {
    "list": ["list"],
    "run": ["run", "GRAMSCHM"],
    "diagnose": ["diagnose", "GRAMSCHM"],
    "workflow": ["workflow"],
    "profile": ["profile", "GRAMSCHM"],
    "table": ["table", "4"],
    "figure": ["figure", "6"],
    "telemetry summarize": ["telemetry", "summarize", "trace.json"],
}

_SHARED = ["--jobs", "2", "--trace", "t.json", "--events", "e.jsonl",
           "--metrics", "--no-warp-batch"]


class TestSharedFlagGroup:
    """Every subcommand accepts the full shared option group."""

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_shared_flags_parse(self, name):
        argv = _SUBCOMMANDS[name] + _SHARED
        args = build_parser().parse_args(argv)
        assert args.jobs == 2
        assert args.trace == "t.json"
        assert args.events == "e.jsonl"
        assert args.metrics is True
        assert args.no_warp_batch is True

    def test_no_warp_batch_run_is_identical(self, capsys):
        assert main(["run", "GRAMSCHM"]) == 0
        default_out = capsys.readouterr().out
        assert main(["run", "GRAMSCHM", "--no-warp-batch"]) == 0
        assert capsys.readouterr().out == default_out

    def test_table_accepts_engine_flags(self, capsys):
        assert main(["table", "5", "--jobs", "1", "--no-warp-batch"]) == 0
        assert "3/3 rows identical" in capsys.readouterr().out


class TestExitCodes:
    """The documented contract: 0 success, 1 tool error, 2 usage."""

    def test_success_is_zero(self):
        assert main(["list"]) == 0

    def test_usage_error_is_two(self):
        # argparse itself exits 2 on unknown flags
        with pytest.raises(SystemExit) as exc:
            main(["run", "GRAMSCHM", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_program_is_two(self):
        assert main(["run", "not-a-program"]) == 2

    def test_removed_interpreter_flag_is_two(self, capsys):
        # the per-instruction interpreter it selected is gone
        with pytest.raises(SystemExit) as exc:
            main(["run", "GRAMSCHM", "--no-decode-cache"])
        assert exc.value.code == 2
        assert "--no-decode-cache" in capsys.readouterr().err

    def test_bad_artifact_number_is_two(self):
        assert main(["figure", "9"]) == 2

    def test_missing_trace_file_is_two(self):
        assert main(["telemetry", "summarize", "/no/such/trace.json"]) == 2

    def test_tool_error_is_one(self, capsys):
        # an unexpected exception inside a command maps to exit code 1
        assert main(["diagnose", "not-a-program"]) == 1
