"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_demo(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "Select X.a From C X"])
        assert args.strategy == "BL"

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "q", "--strategy", "ZZ"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_demo_output(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Hedy" in out and "Tony" in out
        assert "CA:" in out and "BL:" in out and "PL:" in out

    def test_query_command(self, capsys):
        code = main([
            "query",
            "Select X.name From Student X Where X.sex = female",
            "--strategy", "CA",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mary" in out and "Hedy" in out and "Fanny" in out

    def test_query_reports_unsolved(self, capsys):
        main(["query",
              "Select X.name From Student X Where X.age > 25"])
        out = capsys.readouterr().out
        assert "unsolved" in out

    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "15 us/byte" in out
        assert "Table 2" in out and "5000 ~ 6000" in out

    def test_study_single_figure(self, capsys):
        assert main(["study", "--samples", "3", "--figures", "11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "selectivity" in out

    def test_study_unknown_figure(self, capsys):
        assert main(["study", "--figures", "99"]) == 2

    def test_compare_command(self, capsys):
        assert main(["compare", "--seed", "3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "PL-S" in out


class TestTypedErrors:
    """Every ``repro.errors`` failure ends in ``error: ...`` and exit 2."""

    def test_syntax_error(self, capsys):
        assert main(["query", "SELECT name FROM Student WHERE age < 30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deadline_overrun(self, capsys):
        from repro.workload.paper_example import Q1_TEXT

        code = main([
            "query", Q1_TEXT, "--faults", "DB2@0:1e9",
            "--policy", "degrade:deadline=0.01",
        ])
        assert code == 2
        assert "deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--faults", "DB2@0:nan"],
        ["--faults", "link:*>DB2:xinf"],
        ["--policy", "degrade:deadline=nan"],
    ])
    def test_non_finite_fault_values(self, capsys, flags):
        from repro.workload.paper_example import Q1_TEXT

        assert main(["query", Q1_TEXT, *flags]) == 2
        assert "not finite" in capsys.readouterr().err


class TestAutoStrategy:
    def test_query_with_auto(self, capsys):
        from repro.cli import main

        code = main([
            "query",
            "Select X.name From Student X Where X.age > 25",
            "--strategy", "AUTO",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "certain" in out


class TestTrafficCommand:
    ARGS = [
        "traffic", "--workers", "2", "--queries", "4",
        "--seed", "13", "--scale", "0.02",
    ]

    def test_traffic_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "q/s" in out and "latency p50/p95/p99" in out
        assert "0 violations" in out

    def test_traffic_json_deterministic(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["violations"] == []
        assert first["completed"] + first["shed"] == 8

    def test_traffic_defaults(self):
        args = build_parser().parse_args(["traffic"])
        assert args.workers == 8 and args.verify
