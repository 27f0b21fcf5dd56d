"""Tests for the CHP stabilizer simulator."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, bernstein_vazirani, ghz
from repro.circuits.instruction import Instruction
from repro.simulators import StabilizerSimulator, StabilizerState, hellinger_fidelity
from repro.simulators.stabilizer import (
    circuit_is_stabilizer_compatible,
    compile_tableau_program,
    is_stabilizer_gate,
    stabilizer_sequence,
)
from repro.utils.exceptions import StabilizerError
from repro.utils.rng import ensure_generator


class TestStabilizerState:
    def test_initial_state_measures_zero(self):
        state = StabilizerState(3)
        rng = ensure_generator(0)
        assert all(state.measure(q, rng) == 0 for q in range(3))

    def test_x_flips_measurement(self):
        state = StabilizerState(2)
        state.apply_gate("x", (1,))
        assert state.expectation_z(1) == 1
        assert state.expectation_z(0) == 0

    def test_hadamard_gives_random_outcome(self):
        state = StabilizerState(1)
        state.apply_gate("h", (0,))
        assert state.expectation_z(0) is None

    def test_measurement_collapses(self):
        rng = ensure_generator(3)
        state = StabilizerState(1)
        state.apply_gate("h", (0,))
        first = state.measure(0, rng)
        # Subsequent measurements must repeat the collapsed value.
        for _ in range(5):
            assert state.measure(0, rng) == first

    def test_bell_state_correlations(self):
        rng = ensure_generator(7)
        for _ in range(10):
            state = StabilizerState(2)
            state.apply_gate("h", (0,))
            state.apply_gate("cx", (0, 1))
            a = state.measure(0, rng)
            b = state.measure(1, rng)
            assert a == b

    def test_ghz_stabilizer_strings(self):
        state = StabilizerState(3)
        state.apply_gate("h", (0,))
        state.apply_gate("cx", (0, 1))
        state.apply_gate("cx", (1, 2))
        strings = state.stabilizer_strings()
        assert len(strings) == 3
        assert all(string[0] in "+-" for string in strings)

    def test_pauli_error_injection_changes_outcome(self):
        state = StabilizerState(1)
        state.apply_pauli("x", 0)
        assert state.expectation_z(0) == 1

    def test_reset_returns_to_zero(self):
        rng = ensure_generator(5)
        state = StabilizerState(1)
        state.apply_gate("x", (0,))
        state.reset(0, rng)
        assert state.expectation_z(0) == 0

    def test_unknown_pauli_rejected(self):
        with pytest.raises(StabilizerError):
            StabilizerState(1).apply_pauli("w", 0)

    def test_swap_moves_excitation(self):
        state = StabilizerState(2)
        state.apply_gate("x", (0,))
        state.apply_gate("swap", (0, 1))
        assert state.expectation_z(0) == 0
        assert state.expectation_z(1) == 1


class TestStabilizerSimulator:
    def test_bv_matches_statevector(self, stabilizer_simulator, statevector_simulator):
        circuit = bernstein_vazirani("1011")
        stab = stabilizer_simulator.run(circuit, shots=400)
        ideal = statevector_simulator.run(circuit, shots=400)
        assert stab.most_frequent() == ideal.most_frequent()
        assert hellinger_fidelity(stab.counts, ideal.counts) > 0.98

    def test_ghz_only_two_outcomes(self, stabilizer_simulator):
        counts = stabilizer_simulator.run(ghz(5), shots=300).counts
        assert set(counts) == {"00000", "11111"}

    def test_non_clifford_gate_rejected(self, stabilizer_simulator):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        with pytest.raises(StabilizerError):
            stabilizer_simulator.run(circuit, shots=10)

    def test_parameterised_clifford_gates_accepted(self, stabilizer_simulator):
        circuit = QuantumCircuit(1, 1)
        circuit.u2(0.0, math.pi, 0)  # a Hadamard in the device basis
        circuit.measure(0, 0)
        counts = stabilizer_simulator.run(circuit, shots=400).counts
        assert set(counts) == {"0", "1"}

    def test_large_clifford_circuit_runs(self, stabilizer_simulator):
        # 40 qubits is far beyond statevector reach but cheap for the tableau.
        circuit = ghz(40)
        counts = stabilizer_simulator.run(circuit, shots=20).counts
        assert set(counts) <= {"0" * 40, "1" * 40}

    def test_shots_must_be_positive(self, stabilizer_simulator):
        with pytest.raises(StabilizerError):
            stabilizer_simulator.run(ghz(2), shots=0)


class TestProgramCompilation:
    def test_compile_resolves_parameterised_gates(self):
        circuit = QuantumCircuit(2, 2)
        circuit.u2(0.0, math.pi, 0).cx(0, 1).measure_all()
        program = compile_tableau_program(circuit)
        kinds = [step.kind for step in program]
        assert kinds == ["gate", "gate", "measure", "measure"]

    def test_compile_rejects_non_clifford(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        with pytest.raises(StabilizerError):
            compile_tableau_program(circuit)

    def test_compatibility_predicate(self):
        clifford = QuantumCircuit(2)
        clifford.h(0).cx(0, 1)
        assert circuit_is_stabilizer_compatible(clifford)
        non_clifford = QuantumCircuit(1)
        non_clifford.t(0)
        assert not circuit_is_stabilizer_compatible(non_clifford)

    def test_is_stabilizer_gate_by_name(self):
        assert is_stabilizer_gate("cx")
        assert is_stabilizer_gate("measure")
        assert not is_stabilizer_gate("t")

    def test_stabilizer_sequence_for_named_gate(self):
        assert stabilizer_sequence(Instruction("swap", (0, 1))) == ("swap",)

