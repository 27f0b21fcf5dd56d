"""Tests for the optimisation passes."""

import numpy as np

from repro.circuits import QuantumCircuit
from repro.simulators import StatevectorSimulator
from repro.transpiler.context import TranspileContext
from repro.transpiler.passes import CancelAdjacentInverses, Optimize1QubitGates, RemoveBarriers
from linalg_helpers import allclose_up_to_global_phase


def _states_match(circuit_a, circuit_b):
    simulator = StatevectorSimulator(seed=0)
    return allclose_up_to_global_phase(
        simulator.statevector(circuit_a.without_measurements()),
        simulator.statevector(circuit_b.without_measurements()),
    )


class TestCancelAdjacentInverses:
    def test_double_hadamard_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).h(0)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert result.size() == 0

    def test_cancellation_cascades(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).x(0).h(0)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert result.size() == 0

    def test_s_sdg_pair_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.s(0).sdg(0)
        assert CancelAdjacentInverses().run(circuit, TranspileContext()).size() == 0

    def test_opposite_rotations_cancel(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.4, 0).rz(-0.4, 0)
        assert CancelAdjacentInverses().run(circuit, TranspileContext()).size() == 0

    def test_cx_pair_cancels_only_on_same_operands(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 1).cx(1, 2)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert result.count_ops().get("cx") == 1

    def test_barrier_blocks_cancellation(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).barrier().h(0)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert result.count_ops().get("h") == 2

    def test_intervening_gate_blocks_cancellation(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).x(1).cx(0, 1)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert result.count_ops().get("cx") == 2

    def test_semantics_preserved(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).x(0).x(0).cx(0, 1).cx(0, 1).t(1)
        result = CancelAdjacentInverses().run(circuit, TranspileContext())
        assert _states_match(circuit, result)


class TestOptimize1QubitGates:
    def test_run_of_gates_merges_into_one(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).t(0).h(0).s(0)
        result = Optimize1QubitGates().run(circuit, TranspileContext())
        assert result.size() <= 2
        assert _states_match(circuit, result)

    def test_identity_run_disappears(self):
        circuit = QuantumCircuit(1)
        circuit.x(0).x(0)
        result = Optimize1QubitGates().run(circuit, TranspileContext())
        assert result.size() == 0

    def test_two_qubit_gate_flushes_pending_run(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).t(0).cx(0, 1).h(0)
        result = Optimize1QubitGates().run(circuit, TranspileContext())
        names = [inst.name for inst in result]
        assert "cx" in names
        assert _states_match(circuit, result)

    def test_preserves_semantics_on_mixed_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).rz(0.3, 0).rx(0.2, 1).cx(0, 1).s(2).t(2).sdg(2).cz(1, 2).h(2)
        result = Optimize1QubitGates().run(circuit, TranspileContext())
        assert _states_match(circuit, result)

    def test_single_basis_gate_left_untouched(self):
        circuit = QuantumCircuit(1)
        circuit.u1(0.4, 0)
        result = Optimize1QubitGates().run(circuit, TranspileContext())
        assert [inst.name for inst in result] == ["u1"]


class TestRemoveBarriers:
    def test_barriers_removed(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().cx(0, 1)
        result = RemoveBarriers().run(circuit, TranspileContext())
        assert all(inst.name != "barrier" for inst in result)
        assert result.size() == 2
