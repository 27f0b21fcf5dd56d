"""Tests for the Clifford-canary estimator and the analytic ESP baseline."""

import math

import pytest

from repro.backends import named_topology_device, uniform_error_device, line_topology
from repro.circuits import QuantumCircuit, bernstein_vazirani, ghz
from repro.fidelity import CliffordCanaryEstimator, ESPEstimator, achieved_fidelity, is_clifford_circuit
from repro.utils.exceptions import FidelityEstimationError


@pytest.fixture(scope="module")
def clean_device():
    return uniform_error_device("clean", line_topology(6), 6, two_qubit_error=0.005,
                                one_qubit_error=0.001, readout_error=0.005)


@pytest.fixture(scope="module")
def dirty_device():
    return uniform_error_device("dirty", line_topology(6), 6, two_qubit_error=0.3,
                                one_qubit_error=0.05, readout_error=0.1)


class TestCanaryEstimator:
    def test_canary_fidelity_orders_devices_correctly(self, clean_device, dirty_device):
        estimator = CliffordCanaryEstimator(shots=256, seed=5)
        circuit = ghz(4)
        clean_report = estimator.estimate(circuit, clean_device)
        dirty_report = estimator.estimate(circuit, dirty_device)
        assert clean_report.canary_fidelity > dirty_report.canary_fidelity

    def test_report_fields(self, clean_device):
        estimator = CliffordCanaryEstimator(shots=128, seed=5)
        report = estimator.estimate(ghz(3), clean_device)
        assert report.device == "clean"
        assert 0.0 <= report.canary_fidelity <= 1.0
        assert report.shots == 128
        assert report.two_qubit_gates >= 2

    def test_rank_backends_sorted_and_skips_small_devices(self, clean_device, dirty_device):
        tiny = uniform_error_device("tiny", line_topology(2), 2)
        estimator = CliffordCanaryEstimator(shots=128, seed=6)
        reports = estimator.rank_backends(ghz(4), [dirty_device, clean_device, tiny])
        assert [r.device for r in reports] == ["clean", "dirty"]

    def test_estimate_rejects_too_small_device(self, clean_device):
        estimator = CliffordCanaryEstimator(shots=64, seed=1)
        with pytest.raises(FidelityEstimationError):
            estimator.estimate(ghz(10), clean_device)

    def test_invalid_shots_rejected(self):
        with pytest.raises(FidelityEstimationError):
            CliffordCanaryEstimator(shots=0)

    def test_canary_tracks_true_fidelity(self, clean_device, dirty_device):
        """The canary estimate orders devices like the true achieved fidelity."""
        estimator = CliffordCanaryEstimator(shots=256, seed=9)
        circuit = bernstein_vazirani("101")
        canary_clean = estimator.estimate(circuit, clean_device).canary_fidelity
        canary_dirty = estimator.estimate(circuit, dirty_device).canary_fidelity
        true_clean = achieved_fidelity(circuit, clean_device, shots=256, seed=9)
        true_dirty = achieved_fidelity(circuit, dirty_device, shots=256, seed=9)
        assert (canary_clean > canary_dirty) == (true_clean > true_dirty)


class TestAchievedFidelity:
    def test_noiseless_device_achieves_high_fidelity(self):
        ideal = uniform_error_device("ideal", line_topology(5), 5, two_qubit_error=0.0,
                                     one_qubit_error=0.0, readout_error=0.0)
        assert achieved_fidelity(ghz(4), ideal, shots=256, seed=3) > 0.98

    def test_noise_lowers_achieved_fidelity(self, clean_device, dirty_device):
        circuit = ghz(4)
        assert achieved_fidelity(circuit, dirty_device, shots=256, seed=3) < \
            achieved_fidelity(circuit, clean_device, shots=256, seed=3)

    @pytest.mark.parametrize("angle", [0.0, math.pi, 2.0 * math.pi])
    @pytest.mark.parametrize("gate", ["cu1", "cp", "crz", "rzz"])
    def test_clifford_phase_gates_the_tableau_cannot_run(self, gate, angle):
        """These gates pass the fidelity package's Clifford test, but the
        tableau has no sequence for them: the ideal reference must come from
        the statevector engine instead of raising."""
        circuit = QuantumCircuit(2, name=f"h-{gate}")
        circuit.h(0)
        getattr(circuit, gate)(angle, 0, 1)
        assert is_clifford_circuit(circuit)
        ideal = uniform_error_device("ideal", line_topology(2), 2, two_qubit_error=0.0,
                                     one_qubit_error=0.0, readout_error=0.0)
        assert achieved_fidelity(circuit, ideal, shots=256, seed=3) > 0.95


class TestESPEstimator:
    def test_esp_orders_devices(self, clean_device, dirty_device):
        estimator = ESPEstimator(seed=2)
        circuit = ghz(4)
        assert estimator.estimate(circuit, clean_device).esp > estimator.estimate(circuit, dirty_device).esp

    def test_rank_backends(self, clean_device, dirty_device):
        estimator = ESPEstimator(seed=2)
        ranking = estimator.rank_backends(ghz(4), [dirty_device, clean_device])
        assert ranking[0].device == "clean"

    def test_esp_within_unit_interval(self, dirty_device):
        report = ESPEstimator(seed=2).estimate(bernstein_vazirani("101"), dirty_device)
        assert 0.0 <= report.esp <= 1.0
