"""Tests for the command-line interface (run at a tiny custom scale via env)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _smoke_scale(monkeypatch):
    """Run every CLI invocation in this module at the smoke scale."""
    monkeypatch.setenv("REPRO_SCALE", "smoke")


class TestParser:
    def test_commands_are_registered(self):
        parser = build_parser()
        arguments = parser.parse_args(["figure1a"])
        assert arguments.command == "figure1a"
        assert arguments.scale is None

    def test_scale_choices_are_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--scale", "huge", "figure1a"])

    def test_unknown_command_rejected(self):
        parser = build_parser()
        for command in ("figure9z", "lint"):
            with pytest.raises(SystemExit):
                parser.parse_args([command])


class TestExecution:
    def test_figure1a_prints_a_table(self, capsys):
        assert main(["figure1a"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1(a)" in output
        assert "max degree" in output

    def test_figure1c_respects_explicit_scale_flag(self, capsys):
        assert main(["--scale", "smoke", "figure1c"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1(c)" in output
        assert "10*log10(N)" in output

    def test_figure1d_reports_invariants(self, capsys):
        assert main(["figure1d"]) == 0
        output = capsys.readouterr().out
        assert "invariants hold: True" in output
        assert "tree diameter" in output

    def test_ablations_prints_every_ablation(self, capsys):
        assert main(["ablations"]) == 0
        output = capsys.readouterr().out
        for ablation in ("A1", "A2", "A3", "A4", "A8"):
            assert f"Ablation {ablation}" in output
        for deleted in ("A5", "A6", "A7"):
            assert f"Ablation {deleted}" not in output
        assert "lognormal" in output

    def test_network_subcommand_runs_the_link_model_sweep(self, capsys):
        assert main(["network"]) == 0
        output = capsys.readouterr().out
        assert "Ablation A8" in output
        assert "eq match" in output
        assert "lognormal" in output

    def test_trace_prints_every_scenario(self, capsys):
        assert main(["trace"]) == 0
        output = capsys.readouterr().out
        assert "Churn-trace scenarios" in output
        for scenario in ("poisson", "flash-crowd", "mass-departure", "diurnal"):
            assert scenario in output
