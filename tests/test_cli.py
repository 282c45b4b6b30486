"""Tests for the ``simprof`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES, _parse_label, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParseLabel:
    @pytest.mark.parametrize("label,expected", [
        ("wc_sp", ("wc", "spark")),
        ("cc_hp", ("cc", "hadoop")),
        ("rank_spark", ("rank", "spark")),
        ("bayes_hadoop", ("bayes", "hadoop")),
    ])
    def test_valid(self, label, expected):
        assert _parse_label(label) == expected

    @pytest.mark.parametrize("label", ["wc", "wc-sp", "wc_xx", ""])
    def test_invalid(self, label):
        with pytest.raises(SystemExit):
            _parse_label(label)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "wc_sp"])
        assert args.points == 20
        assert args.scale == 1.0
        assert args.unit_size == 100_000_000

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig7"])
        assert args.name == "fig7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("argv,message", [
        (["figure", "fig7", "--draws", "0"], "--draws: must be >= 1"),
        (["figure", "fig7", "--scale", "0"], "--scale: must be > 0"),
        (["profile", "wc_sp", "--scale", "0"], "--scale: must be > 0"),
        (["profile", "wc_sp", "--unit-size", "0"], "--unit-size: must be >= 1"),
        (["profile", "wc_sp", "--snapshot-period", "0"],
         "--snapshot-period: must be >= 1"),
        (["profile", "wc_sp", "--points", "-5"], "--points: must be >= 1"),
        (["run", "wc_sp", "--error", "-0.05"], "--error: must be > 0"),
        (["run", "wc_sp", "--scale", "nan"], "--scale: must be > 0"),
        (["report", "--draws", "0"], "--draws: must be >= 1"),
        (["report", "--scale", "inf"], "--scale: must be > 0"),
        (["sensitivity", "cc_sp", "--points", "0"], "--points: must be >= 1"),
        (["figure", "fig7", "--draws", "two"], "--draws: invalid int value: 'two'"),
        (["figure", "table1", "--jobs", "-4"], "--jobs: must be >= 1"),
        (["figure", "fig7", "--jobs", "0"], "--jobs: must be >= 1"),
        (["report", "--jobs", "0"], "--jobs: must be >= 1"),
        (["check", "--jobs", "0"], "--jobs: must be >= 1"),
        (["check", "--jobs", "-2", "src"], "--jobs: must be >= 1"),
        (["check", "--jobs", "many"], "--jobs: invalid int value: 'many'"),
    ])
    def test_rejects_non_positive_numbers(self, argv, message, capsys):
        """Bad counts and sizes are usage errors, caught before any run."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " + message in err

    def test_figures_registry_importable(self):
        import importlib

        for spec in FIGURES.values():
            module, _, fn = spec.partition(":")
            assert hasattr(importlib.import_module(module), fn)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wordcount" in out
        assert "Google" in out

    def test_run_small(self, capsys):
        rc = main([
            "run", "grep_sp",
            "--scale", "0.05",
            "--unit-size", "10000000",
            "--snapshot-period", "500000",
            "--points", "8",
            "--error", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulation points:" in out
        assert "sample size for 5% error bound" in out

    def test_run_graph_input(self, capsys):
        rc = main([
            "run", "cc_sp",
            "--scale", "0.05",
            "--unit-size", "10000000",
            "--snapshot-period", "500000",
            "--graph", "Road",
        ])
        assert rc == 0
        assert "phases" in capsys.readouterr().out

    def test_table_figure(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_profile_rejects_stream_fault_fields(self, tmp_path):
        # The stream drop/duplicate/reorder knobs are gone; an old plan
        # file naming them fails loudly instead of being half-applied.
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 1, "task_failure_rate": 0.1, "drop_rate": 0.1, '
            '"duplicate_rate": 0.1, "reorder_rate": 0.1, "reorder_depth": 3}'
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "profile", "wc_sp",
             "--scale", "0.01", "--faults", str(plan)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.strip() == (
            "error: cannot load fault plan: unknown FaultPlan fields: "
            "['drop_rate', 'duplicate_rate', 'reorder_depth', 'reorder_rate']"
        )

    def test_sensitivity_rejects_text_workloads(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "wc_sp"])


class TestFigureSmallScale:
    def test_fig9_small_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path))
        from repro.runtime.store import reset_default_stores
        reset_default_stores()
        rc = main([
            "figure", "fig9",
            "--scale", "0.05",
            "--unit-size", "10000000",
            "--snapshot-period", "500000",
            "--draws", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "spark range" in out
