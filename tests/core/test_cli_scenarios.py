"""CLI tests for the scenario subcommands and machine-readable listings."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestPoliciesJson:
    def test_json_listing_is_parseable_and_complete(self, capsys):
        assert main(["policies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload}
        assert {"random", "round-robin", "least-loaded", "fidelity", "topology"} <= names
        for entry in payload:
            assert set(entry) == {"name", "description", "parameters"}

    def test_text_listing_still_works(self, capsys):
        assert main(["policies"]) == 0
        assert "Registered placement policies" in capsys.readouterr().out


class TestScenariosList:
    def test_text_listing_names_every_builtin(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("steady", "diurnal", "bursty", "heavy-tail", "flash-crowd", "closed-loop"):
            assert name in output

    def test_json_listing_is_parseable(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in payload}
        assert rows["bursty"]["process"] == "mmpp"
        assert rows["steady"]["suite"] == "nisq_mix"


class TestScenariosRunAndReplay:
    def test_run_records_and_replays_identically(self, tmp_path, capsys):
        trace_path = tmp_path / "steady.jsonl"
        code = main(
            ["--seed", "7", "scenarios", "run", "steady", "--jobs", "5", "--devices", "4",
             "--fidelity-report", "none", "--record", str(trace_path), "--json"]
        )
        assert code == 0
        run_row = json.loads(capsys.readouterr().out)
        assert trace_path.exists()
        code = main(
            ["--seed", "7", "scenarios", "replay", str(trace_path), "--devices", "4",
             "--fidelity-report", "none", "--json"]
        )
        assert code == 0
        replay_row = json.loads(capsys.readouterr().out)
        # run generated + replayed the same trace the file holds, so the two
        # reports must agree on everything but formatting.
        assert replay_row == run_row

    def test_run_with_policy_and_engine(self, capsys):
        code = main(
            ["--seed", "3", "scenarios", "run", "steady", "--jobs", "4", "--devices", "3",
             "--engine", "orchestrator", "--policy", "least-loaded", "--canary-shots", "32",
             "--fidelity-report", "none"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "orchestrator" in output and "least-loaded" in output

    def test_unknown_scenario_prints_error_and_exits_nonzero(self, capsys):
        assert main(["scenarios", "run", "nope", "--devices", "3"]) == 2
        assert "Unknown scenario" in capsys.readouterr().err

    def test_missing_trace_file_prints_error_and_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        missing.write_text('{"format": "not-a-trace"}\n')
        assert main(["scenarios", "replay", str(missing), "--devices", "3"]) == 2
        assert "not a qrio-trace" in capsys.readouterr().err


class TestScenariosSweep:
    def test_sweep_json_grid(self, capsys):
        code = main(
            ["--seed", "5", "scenarios", "sweep", "--scenarios", "steady", "--engines", "cloud",
             "--policies", "native,round-robin", "--jobs", "4", "--devices", "3",
             "--fidelity-report", "none", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["policy"] for row in rows} == {"native", "round-robin"}

    def test_sweep_table_output(self, capsys):
        code = main(
            ["--seed", "5", "scenarios", "sweep", "--scenarios", "steady", "--engines", "cloud",
             "--policies", "native", "--jobs", "3", "--devices", "3", "--fidelity-report", "none"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Scenario sweep" in output and "p99_wait_s" in output

    def test_sweep_over_the_retired_cluster_engine_fails_with_a_message(self, capsys):
        code = main(
            ["--seed", "5", "scenarios", "sweep", "--scenarios", "steady", "--engines", "cluster",
             "--policies", "native", "--jobs", "3", "--devices", "3", "--fidelity-report", "none"]
        )
        assert code == 2
        assert "Unknown engine 'cluster'" in capsys.readouterr().err


class TestParser:
    def test_scenarios_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_engine_choices_are_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "run", "steady", "--engine", "bogus"])

    def test_the_retired_cluster_engine_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "run", "steady", "--engine", "cluster"])
        assert "invalid choice: 'cluster'" in capsys.readouterr().err
