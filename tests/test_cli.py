"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_all_experiments_registered(self):
        # Every CLI-runnable experiment module must import and expose run().
        import importlib

        for name in _EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)


class TestHandlers:
    def test_every_subcommand_has_a_handler(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert subparsers.choices
        for name, sub in subparsers.choices.items():
            assert callable(sub.get_default("run")), name

    def test_lint_help_is_the_lint_modules(self, capsys):
        """``repro lint`` declares no flag of its own: its help is the
        one ``python -m repro.analysis.lint --help`` prints."""
        from repro.analysis import lint

        helps = []
        for entry, argv in ((main, ["lint", "--help"]),
                            (lint.main, ["--help"])):
            with pytest.raises(SystemExit) as exc:
                entry(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert "--baseline" in helps[0] and "--json-out" in helps[0]
        assert helps[0] == helps[1]


class TestCommands:
    def test_experiments_lists(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "darknet53" in out

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "A+B" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v1" in out and "gflops" in out

    def test_profile(self, capsys):
        assert main(["profile", "resnet50", "--batches", "1,8"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "throughput_rps" in out

    def test_profile_specialized_model(self, capsys):
        assert main(["profile", "resnet50@task:40"]) == 0

    def test_plan(self, capsys):
        assert main(["plan", "resnet50:100:300", "googlenet:150:100"]) == 0
        out = capsys.readouterr().out
        assert "GPUs" in out and "resnet50" in out

    def test_plan_exact(self, capsys):
        assert main(["plan", "resnet50:100:50", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "exact optimum" in out

    def test_plan_bad_spec(self, capsys):
        assert main(["plan", "resnet50-oops"]) == 2
        assert "bad session spec" in capsys.readouterr().err

    def test_plan_infeasible_session_reported(self, capsys):
        assert main(["plan", "darknet53:5:10"]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_help_lists_trace_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--trace-out" in out and "--metrics-out" in out
        assert "--trace-csv" in out

    def test_traced_run_exports_artifacts(self, tmp_path, capsys):
        """A traced experiment run produces parseable Chrome-trace JSON
        plus a Prometheus snapshot (the README quickstart, in miniature)."""
        import json

        trace = tmp_path / "util.trace.json"
        metrics = tmp_path / "util.metrics.txt"
        assert main([
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "run", "utilization", "--quick",
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        phases = {te["ph"] for te in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        text = metrics.read_text()
        assert "nexus_requests_total" in text
        assert "nexus_gpu_occupancy" in text
        err = capsys.readouterr().err
        assert "trace:" in err and "metrics snapshot" in err


class TestQuickRuns:
    def test_run_fig5_quick(self, capsys):
        assert main(["run", "fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out

    def test_run_fig15(self, capsys):
        assert main(["run", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "pb_gain" in out

    def test_run_ilp_gap_quick(self, capsys):
        assert main(["run", "ilp_gap", "--quick"]) == 0
        assert "mean_gap" in capsys.readouterr().out

    def test_oracle_validation_quick(self, capsys):
        assert main(["oracle-validation", "--quick", "--duration",
                     "8000"]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out
        assert "p99_err_pct" in out
