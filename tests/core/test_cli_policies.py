"""CLI tests for the unified placement-policy surface.

Covers the ``policies`` listing subcommand, the ``--engine`` flag (and its
default, inferred from whether ``--policy`` is given), registry-resolved
policies under every engine, and the ``--explain`` breakdown.
"""

import pytest

from repro.cli import build_parser, main
from repro.circuits import ghz
from repro.qasm import write_qasm_file


@pytest.fixture
def qasm_path(tmp_path):
    path = tmp_path / "ghz.qasm"
    write_qasm_file(ghz(3), path)
    return str(path)


class TestPoliciesSubcommand:
    def test_lists_registered_policies_with_parameters(self, capsys):
        assert main(["policies"]) == 0
        output = capsys.readouterr().out
        for name in ("random", "round-robin", "least-loaded", "fidelity",
                     "queue-aware", "threshold-fidelity", "topology"):
            assert name in output
        assert "queue_weight=0.3" in output  # queue-aware's default parameter


class TestEngineFlag:
    def test_engine_choices_are_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "c.qasm", "--engine", "bogus"])

    def test_the_retired_cluster_engine_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "c.qasm", "--engine", "cluster"])
        assert "invalid choice: 'cluster'" in capsys.readouterr().err

    def test_the_retired_cluster_alias_is_not_a_policy(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--policy", "cluster", "--devices", "4"])
        assert code == 2
        assert "Unknown placement policy 'cluster'" in capsys.readouterr().err

    def test_engine_defaults_to_inference(self):
        args = build_parser().parse_args(["submit", "c.qasm"])
        assert args.engine is None and args.policy is None

    def test_an_engine_name_is_not_a_policy(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--policy", "qrio", "--devices", "4"])
        assert code == 2
        assert "qrio" in capsys.readouterr().err

    def test_explicit_engine_with_policy(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--engine", "qrio",
                     "--policy", "fidelity", "--shots", "32", "--devices", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "orchestrator engine" in output


class TestRegistryResolvedSubmit:
    def test_parameterized_policy_on_qrio_engine(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--engine", "qrio",
                     "--policy", "fidelity:queue_weight=0.3", "--shots", "32",
                     "--devices", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "orchestrator engine" in output
        assert "Succeeded" in output

    def test_legacy_cloud_policy_inference_still_works(self, qasm_path, capsys):
        # No --engine: a cloud policy name still selects the cloud engine.
        code = main(["--seed", "7", "submit", qasm_path, "--policy", "least-loaded",
                     "--shots", "32", "--devices", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "cloud engine" in output

    def test_unknown_policy_fails_fast_with_suggestion(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--policy", "fidelty",
                     "--devices", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "did you mean 'fidelity'" in captured.err


class TestExplain:
    def test_explain_prints_per_device_breakdown(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--engine", "qrio",
                     "--policy", "fidelity", "--shots", "32", "--devices", "4",
                     "--explain"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Placement decision:" in output
        assert "estimated_fidelity" in output
        assert "lower is better" in output

    def test_explain_without_policy_prints_hint(self, qasm_path, capsys):
        code = main(["--seed", "7", "submit", qasm_path, "--shots", "32",
                     "--devices", "4", "--explain"])
        output = capsys.readouterr().out
        assert code == 0
        assert "no per-device breakdown" in output
