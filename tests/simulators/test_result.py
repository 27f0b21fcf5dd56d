"""Tests for simulation results and distribution metrics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulators import (
    SimulationResult,
    counts_to_probabilities,
    hellinger_fidelity,
    marginal_counts,
    success_probability,
    total_variation_distance,
    uniform_counts,
)
from repro.utils.exceptions import SimulationError


class TestSimulationResult:
    def test_probabilities_normalise(self):
        result = SimulationResult(counts={"00": 75, "11": 25}, shots=100)
        assert result.probabilities() == {"00": 0.75, "11": 0.25}

    def test_most_frequent(self):
        result = SimulationResult(counts={"01": 10, "10": 30}, shots=40)
        assert result.most_frequent() == "10"

    def test_most_frequent_empty_raises(self):
        with pytest.raises(SimulationError):
            SimulationResult(counts={}, shots=10).most_frequent()

    def test_merged_sums_counts(self):
        a = SimulationResult(counts={"0": 5}, shots=5)
        b = SimulationResult(counts={"0": 2, "1": 3}, shots=5)
        merged = a.merged(b)
        assert merged.counts == {"0": 7, "1": 3}
        assert merged.shots == 10


class TestMetrics:
    def test_hellinger_identical_distributions(self):
        counts = {"00": 512, "11": 512}
        assert hellinger_fidelity(counts, counts) == pytest.approx(1.0)

    def test_hellinger_disjoint_distributions(self):
        assert hellinger_fidelity({"00": 10}, {"11": 10}) == pytest.approx(0.0)

    def test_hellinger_is_symmetric(self):
        a = {"00": 70, "01": 30}
        b = {"00": 40, "11": 60}
        assert hellinger_fidelity(a, b) == pytest.approx(hellinger_fidelity(b, a))

    def test_tvd_bounds(self):
        assert total_variation_distance({"0": 1}, {"0": 1}) == pytest.approx(0.0)
        assert total_variation_distance({"0": 1}, {"1": 1}) == pytest.approx(1.0)

    def test_success_probability(self):
        assert success_probability({"101": 30, "000": 70}, "101") == pytest.approx(0.3)

    def test_success_probability_empty_raises(self):
        with pytest.raises(SimulationError):
            success_probability({}, "0")

    def test_counts_to_probabilities_rejects_empty(self):
        with pytest.raises(SimulationError):
            counts_to_probabilities({})

    def test_uniform_counts_sum_to_shots(self):
        counts = uniform_counts(3, 1000)
        assert sum(counts.values()) == 1000
        assert len(counts) == 8

    def test_marginal_counts(self):
        counts = {"110": 4, "010": 6}
        # keep only classical bit 1 (middle character).
        marginal = marginal_counts(counts, [1])
        assert marginal == {"1": 10}
        # bits (2, 0): most significant kept char is bit 2.
        marginal2 = marginal_counts(counts, [0, 2])
        assert marginal2 == {"10": 4, "00": 6}


_REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_METRICS_CHILD = """
from repro.simulators import hellinger_fidelity, total_variation_distance
a = {'000': 311, '001': 97, '010': 53, '011': 29, '100': 201, '101': 17, '110': 88, '111': 228}
b = {'000': 250, '001': 120, '010': 40, '011': 60, '100': 180, '101': 30, '110': 100, '111': 244}
print(repr(hellinger_fidelity(a, b)), repr(total_variation_distance(a, b)))
"""


def test_metrics_are_bit_identical_across_hash_salts():
    """The sums run in a fixed order, not in the salted order of a string set."""
    outputs = set()
    for salt in range(4):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = str(salt)
        completed = subprocess.run(
            [sys.executable, "-c", _METRICS_CHILD],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        )
        outputs.add(completed.stdout.strip())
    assert len(outputs) == 1, outputs
