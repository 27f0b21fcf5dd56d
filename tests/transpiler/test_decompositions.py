"""Tests for gate decomposition rules and single-qubit resynthesis."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from repro.circuits import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.circuits.instruction import Instruction
from repro.simulators import StatevectorSimulator
from repro.transpiler import decompose_instruction, resynthesise_single_qubit, zyz_angles
from repro.utils.exceptions import TranspilerError
from linalg_helpers import allclose_up_to_global_phase


def _instructions_to_unitary(instructions, num_qubits):
    """Multiply the matrices of instructions (little-endian) for verification."""
    from linalg_helpers import expand_operator

    unitary = np.eye(2**num_qubits, dtype=complex)
    for instruction in instructions:
        unitary = expand_operator(instruction.matrix(), list(instruction.qubits), num_qubits) @ unitary
    return unitary


class TestZYZ:
    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "id"])
    def test_named_gates(self, name):
        theta, phi, lam = zyz_angles(gate_matrix(name))
        assert allclose_up_to_global_phase(gate_matrix("u3", (theta, phi, lam)), gate_matrix(name))

    def test_random_unitaries(self):
        for seed in range(20):
            matrix = unitary_group.rvs(2, random_state=seed)
            theta, phi, lam = zyz_angles(matrix)
            assert allclose_up_to_global_phase(gate_matrix("u3", (theta, phi, lam)), matrix)

    def test_rejects_two_qubit_matrix(self):
        with pytest.raises(TranspilerError):
            zyz_angles(gate_matrix("cx"))


class TestResynthesis:
    def test_diagonal_gate_prefers_u1(self):
        result = resynthesise_single_qubit(Instruction("rz", (0,), params=(0.7,)), ("u1", "u2", "u3"))
        assert [inst.name for inst in result] == ["u1"]

    def test_identity_drops_out(self):
        assert resynthesise_single_qubit(Instruction("id", (0,)), ("u1", "u2", "u3")) == []

    def test_hadamard_prefers_u2(self):
        result = resynthesise_single_qubit(Instruction("h", (0,)), ("u1", "u2", "u3"))
        assert [inst.name for inst in result] == ["u2"]

    def test_generic_gate_uses_u3(self):
        result = resynthesise_single_qubit(Instruction("rx", (0,), params=(0.4,)), ("u1", "u2", "u3"))
        assert [inst.name for inst in result] == ["u3"]

    def test_missing_basis_raises(self):
        with pytest.raises(TranspilerError):
            resynthesise_single_qubit(Instruction("h", (0,)), ("rz", "cx"))


class TestDecompositionRules:
    @pytest.mark.parametrize("name,qubits,params", [
        ("swap", (0, 1), ()),
        ("cz", (0, 1), ()),
        ("cy", (0, 1), ()),
        ("ch", (0, 1), ()),
        ("crz", (0, 1), (0.6,)),
        ("cu1", (0, 1), (1.1,)),
        ("rzz", (0, 1), (0.8,)),
        ("ccx", (0, 1, 2), ()),
        ("ccz", (0, 1, 2), ()),
    ])
    def test_decomposition_preserves_unitary(self, name, qubits, params):
        instruction = Instruction(name, qubits, params=params)
        pieces = decompose_instruction(instruction, ("u1", "u2", "u3", "cx"))
        num_qubits = max(qubits) + 1
        original = _instructions_to_unitary([instruction], num_qubits)
        rebuilt = _instructions_to_unitary(pieces, num_qubits)
        assert allclose_up_to_global_phase(original, rebuilt)

    def test_basis_gate_passes_through(self):
        instruction = Instruction("cx", (0, 1))
        assert decompose_instruction(instruction, ("u3", "cx")) == [instruction]

    def test_directives_pass_through(self):
        barrier = Instruction("barrier", (0, 1))
        assert decompose_instruction(barrier, ("u3", "cx")) == [barrier]

    def test_missing_cx_in_basis_raises(self):
        with pytest.raises(TranspilerError):
            decompose_instruction(Instruction("swap", (0, 1)), ("u3", "cz"))

    def test_output_only_contains_basis_gates(self):
        pieces = decompose_instruction(Instruction("ccx", (0, 1, 2)), ("u1", "u2", "u3", "cx"))
        assert {piece.name for piece in pieces} <= {"u1", "u2", "u3", "cx"}
