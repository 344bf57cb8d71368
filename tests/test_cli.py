"""Tests for the repro CLI."""

import argparse
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestCli:
    def test_footprint(self, capsys):
        assert main(["footprint"]) == 0
        out = capsys.readouterr().out
        assert "syn" in out and "min_servers" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_access_mix(self, capsys):
        assert main(["access-mix", "--max-nodes", "1500"]) == 0
        out = capsys.readouterr().out
        assert "structure%" in out

    def test_e2e(self, capsys):
        assert main(["e2e"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out and "storage ratio" in out

    def test_poc(self, capsys):
        assert main(["poc", "--max-nodes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_validate(self, capsys):
        assert main(["validate", "--max-nodes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "mean error" in out

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "ecs-re-x" in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "mem-opt.tc" in out

    def test_sampler(self, capsys):
        assert main(["sampler"]) == 0
        out = capsys.readouterr().out
        assert "LUT saving" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "footprint", "scaling", "access-mix", "e2e", "poc",
            "validate", "cost", "dse", "sampler",
        ):
            assert command in help_text


class TestExtraCommands:
    def test_system(self, capsys):
        from repro.cli import main

        assert main(["system", "--max-nodes", "2000"]) == 0
        out = capsys.readouterr().out
        assert "cards" in out and "remote" in out

    def test_service(self, capsys):
        from repro.cli import main

        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "deadline" in out


class TestServeCommand:
    def test_serve_smoke(self, capsys):
        from repro.cli import main

        assert main(["serve", "--duration-s", "0.5", "--max-nodes", "1200",
                     "--no-functional"]) == 0
        out = capsys.readouterr().out
        assert "p99 latency" in out
        assert "shed rate" in out
        assert "batch occupancy" in out

    def test_serve_overload_and_failure(self, capsys):
        from repro.cli import main

        assert main(["serve", "--duration-s", "0.3", "--max-nodes", "1200",
                     "--overload", "2.0", "--fail-hardware-at", "0.15",
                     "--no-functional"]) == 0
        out = capsys.readouterr().out
        assert "2.0x offered/provisioned" in out
        assert "backend software" in out

    def test_parser_lists_serve(self):
        from repro.cli import build_parser

        assert "serve" in build_parser().format_help()


class TestFaultsCommand:
    def test_faults_clean(self, capsys):
        assert main(["faults", "--max-nodes", "600"]) == 0
        out = capsys.readouterr().out
        assert "replicas: 2x" in out
        assert "retries 0" in out
        assert "failed reads 0" in out

    def test_faults_kill_primary(self, capsys):
        assert main(["faults", "--max-nodes", "600",
                     "--kill-partition", "1"]) == 0
        out = capsys.readouterr().out
        assert "killed: partition 1 replica 0" in out
        assert "failovers" in out

    def test_faults_lossy_no_hedge(self, capsys):
        assert main(["faults", "--max-nodes", "600", "--loss-rate", "0.1",
                     "--no-hedge"]) == 0
        out = capsys.readouterr().out
        assert "hedging: off" in out
        assert "loss rate: 10.0%" in out

    def test_parser_lists_faults(self):
        assert "faults" in build_parser().format_help()


class TestServiceNaNGuard:
    @staticmethod
    def _empty_report():
        from repro.serving import MetricsRegistry

        return MetricsRegistry().snapshot(duration_s=0.0, drain_s=0.0)

    def test_zero_batch_runs_print_na(self, capsys, monkeypatch):
        import repro.serving as serving_mod

        empty = self._empty_report()
        monkeypatch.setattr(
            serving_mod, "serve_closed_loop", lambda *args, **kwargs: empty
        )
        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "n/a (no quiet batches)" in out
        assert "nan" not in out.lower()

    def test_zero_loaded_batches_print_na(self, capsys, monkeypatch):
        import repro.serving as serving_mod

        real_loop = serving_mod.serve_closed_loop

        def loop(backends, workers, batches_per_worker, **kwargs):
            if workers > 1:  # the loaded run
                return self._empty_report()
            return real_loop(backends, workers, batches_per_worker, **kwargs)

        monkeypatch.setattr(serving_mod, "serve_closed_loop", loop)
        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "n/a (no loaded batches)" in out
        assert "nan" not in out.lower()


def test_cli_surface_matches_its_documentation():
    """The module docstring and the README list the parser's
    subcommands, exactly; the retired bench subcommands are gone."""
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    commands = sorted(subparsers.choices)

    in_docstring = re.findall(r"python -m repro ([\w-]+)", repro.cli.__doc__)
    assert sorted(in_docstring) == commands

    readme = Path(__file__).resolve().parents[1] / "README.md"
    (listed,) = re.findall(
        r"Or use the CLI: `python -m repro \{([^}]*)\}`",
        readme.read_text(encoding="utf-8"),
    )
    assert sorted(listed.split(",")) == commands

    for removed in (
        "bench-sampler", "layout-bench", "mutate-bench", "train-bench"
    ):
        assert removed not in commands
        with pytest.raises(SystemExit) as exit_info:
            main([removed])
        assert exit_info.value.code == 2
