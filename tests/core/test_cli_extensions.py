"""Tests for the CLI extension-experiment subcommand."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestExtensionParser:
    def test_extension_choices_are_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extension", "warp-drive"])

    def test_extension_defaults(self):
        args = build_parser().parse_args(["extension", "cloud-policies"])
        assert args.jobs == 60
        assert args.devices == 8
        assert args.cycles == 8
        assert args.scale == "default"


class TestExtensionCommands:
    def test_cloud_policies_quick(self, capsys):
        code = main(
            ["--seed", "9", "extension", "cloud-policies", "--scale", "quick", "--jobs", "10", "--devices", "3"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Cloud policy comparison" in output
        assert "fidelity[esp, queue_weight=0.3]" in output

    def test_calibration_drift_quick(self, capsys):
        code = main(["--seed", "9", "extension", "calibration-drift", "--scale", "quick", "--cycles", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Calibration drift" in output
        assert "switch fraction" in output

    def test_scalable_matching_quick(self, capsys):
        code = main(["--seed", "9", "extension", "scalable-matching", "--scale", "quick"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Scalable topology scoring ablation" in output
        assert "speedup" in output
