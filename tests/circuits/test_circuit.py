"""Tests for the QuantumCircuit container."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.simulators import StatevectorSimulator
from repro.utils.exceptions import CircuitError
from linalg_helpers import allclose_up_to_global_phase


class TestConstruction:
    def test_default_clbits_match_qubits(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_clbits == 3

    def test_append_validates_qubit_range(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.h(2)

    def test_append_validates_clbit_range(self):
        circuit = QuantumCircuit(2, 1)
        with pytest.raises(ValueError):
            circuit.measure(0, 1)

    def test_fluent_builders_return_self(self):
        circuit = QuantumCircuit(2)
        assert circuit.h(0).cx(0, 1) is circuit
        assert len(circuit) == 2

    def test_all_gate_builders_append(self):
        circuit = QuantumCircuit(3)
        circuit.id(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0)
        circuit.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0).u1(0.5, 0)
        circuit.u2(0.1, 0.2, 0).u3(0.1, 0.2, 0.3, 0).u(0.1, 0.2, 0.3, 0)
        circuit.cx(0, 1).cz(0, 1).cy(0, 1).ch(0, 1).swap(0, 1)
        circuit.crz(0.1, 0, 1).cu1(0.2, 0, 1).cp(0.3, 0, 1).rzz(0.4, 0, 1)
        circuit.ccx(0, 1, 2).ccz(0, 1, 2)
        circuit.barrier().reset(2)
        assert circuit.size() == len(circuit) - 1  # barrier excluded from size


class TestStructure:
    def test_depth_simple_chain(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        assert circuit.depth() == 3

    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1)
        assert circuit.depth() == 1

    def test_barrier_does_not_count_toward_depth(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(0)
        assert circuit.depth() == 2

    def test_count_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1).measure_all()
        counts = circuit.count_ops()
        assert counts["h"] == 2
        assert counts["cx"] == 1
        assert counts["measure"] == 2

    def test_num_two_qubit_gates_excludes_measure(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cz(1, 2).ccx(0, 1, 2).measure_all()
        assert circuit.num_two_qubit_gates() == 2

    def test_interaction_pairs_multiplicity(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 0).cz(1, 2)
        pairs = circuit.interaction_pairs()
        assert pairs[(0, 1)] == 2
        assert pairs[(1, 2)] == 1

    def test_used_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.h(1).cx(1, 3)
        assert circuit.used_qubits() == {1, 3}
        assert circuit.num_active_qubits() == 2

    def test_measurement_map(self):
        circuit = QuantumCircuit(3)
        circuit.measure(0, 2).measure(2, 0)
        assert circuit.measurement_map() == {0: 2, 2: 0}

    def test_measure_all_requires_enough_clbits(self):
        circuit = QuantumCircuit(3, 1)
        with pytest.raises(CircuitError):
            circuit.measure_all()


class TestTransformations:
    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2

    def test_compose(self):
        first = QuantumCircuit(2)
        first.h(0)
        second = QuantumCircuit(2)
        second.cx(0, 1)
        combined = first.compose(second)
        assert [inst.name for inst in combined] == ["h", "cx"]

    def test_compose_rejects_wider_circuit(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).compose(QuantumCircuit(2))

    def test_without_measurements(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).measure_all()
        stripped = circuit.without_measurements()
        assert stripped.num_measurements() == 0
        assert stripped.count_ops().get("h") == 1

    def test_remove_final_measurements_keeps_mid_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        trimmed = circuit.remove_final_measurements()
        assert trimmed.num_measurements() == 0
        assert trimmed.size() == 2

    def test_remap_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remap_qubits([4, 2], num_qubits=6)
        assert remapped.num_qubits == 6
        assert remapped.data[0].qubits == (4, 2)

    def test_remap_requires_full_mapping(self):
        circuit = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            circuit.remap_qubits([0, 1])

    def test_inverse_undoes_unitary(self, statevector_simulator):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1).cx(0, 1).u3(0.3, 0.2, 0.1, 2).rz(0.7, 0).swap(1, 2)
        identity = circuit.compose(circuit.inverse())
        state = statevector_simulator.statevector(identity)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert allclose_up_to_global_phase(state, expected)

    def test_inverse_rejects_measurements(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.inverse()

    def test_summary_contains_name_and_counts(self):
        circuit = QuantumCircuit(2, name="demo")
        circuit.h(0).cx(0, 1)
        summary = circuit.summary()
        assert "demo" in summary and "cx:1" in summary
