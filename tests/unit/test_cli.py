"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "repaired value : 76" in out
        assert "R1_COUNTER_MISMATCH" in out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "S01" in out and "S16" in out

    def test_perturb_small(self, capsys):
        assert main(["perturb", "--trials", "20", "--matrices", "3", "--max-zeroed", "2"]) == 0
        out = capsys.readouterr().out
        assert "detection rate" in out

    def test_drains_small(self, capsys):
        assert main(["drains", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "fresh-drain-with-reason" in out

    def test_hardening_small(self, capsys):
        assert main(["hardening", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "correlated vendor bug" in out

    def test_thresholds_small(self, capsys):
        assert main(["thresholds", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "tau_h" in out

    def test_replay(self, capsys):
        assert main(["replay", "--history", "3"]) == 0
        out = capsys.readouterr().out
        assert "hodor_detection_rate" in out


class TestReportCommand:
    def test_quick_report_to_stdout(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "# Hodor reproduction" in out
        assert "E2 —" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "RESULTS.md"
        assert main(["report", "--quick", "--output", str(target)]) == 0
        assert "full measured report" in target.read_text()
