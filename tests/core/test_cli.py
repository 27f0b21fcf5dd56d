"""Tests for the command-line interface."""

import multiprocessing
import re

import pytest

from repro.cli import build_parser, main
from repro.circuits import ghz
from repro.qasm import write_qasm_file


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_are_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.devices == 16
        assert args.command == "demo"


class TestCommands:
    def test_fleet_command_prints_table2(self, capsys):
        assert main(["--seed", "3", "fleet", "--devices", "6"]) == 0
        output = capsys.readouterr().out
        assert "Controllable Backend Parameters" in output
        assert "6 devices generated" in output

    def test_experiment_tables(self, capsys):
        assert main(["experiment", "tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Table 2" in output

    def test_experiment_fig10_quick(self, capsys):
        assert main(["--seed", "5", "experiment", "fig10", "--scale", "quick"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 10" in output
        assert "Monotonic: True" in output

    def test_experiment_fig8_9_quick(self, capsys):
        assert main(["--seed", "5", "experiment", "fig8_9", "--scale", "quick"]) == 0
        assert "device_tree" in capsys.readouterr().out

    def test_submit_fidelity_job(self, tmp_path, capsys):
        path = tmp_path / "ghz.qasm"
        write_qasm_file(ghz(3), path)
        code = main(["--seed", "7", "submit", str(path), "--fidelity", "0.8",
                     "--shots", "64", "--devices", "8"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Succeeded" in output

    def test_submit_unschedulable_returns_nonzero(self, tmp_path, capsys):
        path = tmp_path / "ghz.qasm"
        write_qasm_file(ghz(3), path)
        code = main(["--seed", "7", "submit", str(path), "--max-two-qubit-error", "0.0001",
                     "--shots", "32", "--devices", "6"])
        assert code == 1
        assert "could not be scheduled" in capsys.readouterr().out

    def test_submit_through_process_shards(self, tmp_path, capsys):
        path = tmp_path / "ghz.qasm"
        write_qasm_file(ghz(3), path)
        code = main(["--seed", "7", "submit", str(path), "--shards", "2", "--tenant", "acme",
                     "--shots", "32", "--devices", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert re.search(r"orchestrator engine, tenant 'acme' routed to shard [01] of 2", output)
        assert "Done      finished on" in output and "Device: " in output
        # The front desk is closed on the way out: no shard process outlives main().
        assert not [child for child in multiprocessing.active_children() if child.name.startswith("qrio-shard")]

    def test_sharded_cloud_submit_executes_the_requested_shots(self, tmp_path, capsys):
        # Both front desks run the job with --shots 32, so the fidelity
        # measured from its execution is the same in process and in a shard.
        path = tmp_path / "ghz.qasm"
        write_qasm_file(ghz(3), path)
        argv = ["--seed", "7", "submit", str(path), "--policy", "round-robin", "--devices", "4",
                "--engine", "cloud", "--fidelity-report", "execute", "--shots", "32"]
        fidelities = []
        for extra in ([], ["--shards", "2"]):
            assert main(argv + extra) == 0
            match = re.search(r"Device: (\S+) .* reported fidelity ([0-9.]+)", capsys.readouterr().out)
            fidelities.append(match.groups())
        assert fidelities[0] == fidelities[1]

    def test_submit_topology_job(self, tmp_path, capsys):
        path = tmp_path / "ghz.qasm"
        write_qasm_file(ghz(4), path)
        code = main(["--seed", "7", "submit", str(path), "--topology", "0-1,1-2,2-3",
                     "--shots", "32", "--devices", "8"])
        assert code == 0
        assert "topology" in capsys.readouterr().out.lower()
