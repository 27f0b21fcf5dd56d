"""Tests for the noisy execution engines."""

import pytest

from repro.circuits import QuantumCircuit, bernstein_vazirani, ghz
from repro.simulators import (
    DENSITY_LIMIT,
    NoiseModel,
    NoisyStabilizerSimulator,
    NoisyStatevectorSimulator,
    execute_with_noise,
    hellinger_fidelity,
    success_probability,
)
from repro.simulators.stabilizer import circuit_is_stabilizer_compatible
from repro.utils.exceptions import SimulationError, StabilizerError


@pytest.fixture(scope="module")
def moderate_noise():
    return NoiseModel.uniform(6, one_qubit_error=0.01, two_qubit_error=0.05, readout_error=0.02)


class TestNoisyStatevector:
    def test_zero_noise_reproduces_ideal(self, statevector_simulator):
        circuit = bernstein_vazirani("101")
        noisy = NoisyStatevectorSimulator(seed=3).run(circuit, NoiseModel.ideal(), shots=400)
        ideal = statevector_simulator.run(circuit, shots=400)
        assert hellinger_fidelity(noisy.counts, ideal.counts) > 0.97

    def test_noise_reduces_success_probability(self):
        circuit = bernstein_vazirani("111")
        clean = NoisyStatevectorSimulator(seed=5).run(circuit, NoiseModel.ideal(), shots=400)
        noisy = NoisyStatevectorSimulator(seed=5).run(
            circuit, NoiseModel.uniform(4, 0.02, 0.15, 0.05), shots=400
        )
        assert success_probability(noisy.counts, "111") < success_probability(clean.counts, "111")

    def test_readout_error_flips_bits(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        model = NoiseModel(readout_error={0: 0.5})
        counts = NoisyStatevectorSimulator(seed=1).run(circuit, model, shots=2000).counts
        assert counts.get("1", 0) > 700

    def test_shot_count_respected(self, moderate_noise):
        result = NoisyStatevectorSimulator(seed=2).run(ghz(3), moderate_noise, shots=123)
        assert sum(result.counts.values()) == 123

    def test_reset_rejected(self):
        circuit = QuantumCircuit(1, 1)
        circuit.reset(0)
        with pytest.raises(SimulationError):
            NoisyStatevectorSimulator().run(circuit, shots=10)

    def test_invalid_shots(self):
        with pytest.raises(SimulationError):
            NoisyStatevectorSimulator().run(ghz(2), shots=0)


class TestNoisyStabilizer:
    def test_agrees_with_noisy_statevector_on_clifford_circuit(self):
        circuit = ghz(4)
        model = NoiseModel.uniform(4, one_qubit_error=0.01, two_qubit_error=0.08, readout_error=0.03)
        stab = NoisyStabilizerSimulator(seed=11).run(circuit, model, shots=1500)
        statevec = NoisyStatevectorSimulator(seed=13).run(circuit, model, shots=1500)
        assert hellinger_fidelity(stab.counts, statevec.counts) > 0.95

    def test_non_clifford_rejected(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0).measure(0, 0)
        with pytest.raises(StabilizerError):
            NoisyStabilizerSimulator().run(circuit, shots=10)

    def test_noise_degrades_ghz(self):
        circuit = ghz(5)
        noisy = NoisyStabilizerSimulator(seed=4).run(
            circuit, NoiseModel.uniform(5, 0.02, 0.2, 0.05), shots=500
        )
        ideal_mass = noisy.counts.get("00000", 0) + noisy.counts.get("11111", 0)
        assert ideal_mass < 450


class TestExecuteWithNoise:
    def test_dispatches_narrow_circuits_to_the_density_engine(self):
        result = execute_with_noise(ghz(3), NoiseModel.ideal(), shots=64, seed=1)
        assert result.metadata["simulator"] == "density_matrix"

    def test_dispatches_mid_width_circuits_to_statevector(self):
        result = execute_with_noise(ghz(DENSITY_LIMIT + 1), NoiseModel.ideal(), shots=64, seed=1)
        assert result.metadata["simulator"] == "noisy_statevector"

    def test_dispatches_wide_clifford_circuits_to_stabilizer(self):
        result = execute_with_noise(ghz(20), NoiseModel.ideal(), shots=16, seed=1)
        assert result.metadata["simulator"] == "noisy_stabilizer"

    def test_wide_non_clifford_circuit_rejected(self):
        circuit = ghz(20, measure=False)
        circuit.t(0)
        circuit.measure_all()
        with pytest.raises(SimulationError):
            execute_with_noise(circuit, NoiseModel.ideal(), shots=16, compact=False)

    def test_compaction_restricts_noise_to_active_qubits(self):
        # Only qubits 7 and 8 are active; their noise must follow them.
        circuit = QuantumCircuit(10, 2)
        circuit.x(7).cx(7, 8).measure(7, 0).measure(8, 1)
        model = NoiseModel(readout_error={7: 0.0, 8: 0.0}, two_qubit_error={(7, 8): 0.0},
                           one_qubit_error={7: 0.0, 8: 0.0}, default_two_qubit_error=0.9,
                           default_one_qubit_error=0.9, default_readout_error=0.9)
        result = execute_with_noise(circuit, model, shots=200, seed=2)
        assert result.counts == {"11": 200}

    def test_is_clifford_circuit_predicate(self):
        assert circuit_is_stabilizer_compatible(ghz(3))
        non_clifford = QuantumCircuit(1)
        non_clifford.t(0)
        assert not circuit_is_stabilizer_compatible(non_clifford)
