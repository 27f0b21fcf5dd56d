"""Decomposition and basis-translation passes."""

from __future__ import annotations

from typing import Sequence

from repro.backends.properties import DEFAULT_BASIS_GATES
from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.context import TranspileContext
from repro.transpiler.decompositions import decompose_instruction
from repro.transpiler.passes.base import TranspilerPass


class DecomposeMultiQubitGates(TranspilerPass):
    """Expand gates acting on three or more qubits into 1- and 2-qubit gates.

    This is the "3+ Qubit Gate Decomposition" stage of the paper's transpiler
    description; it must run before placement/routing because coupling maps
    only describe pairwise connectivity.
    """

    #: Two-qubit gates the router understands natively; everything else with
    #: arity >= 2 that has a rule is expanded here as well when requested.
    def __init__(self, expand_two_qubit: bool = False) -> None:
        self._expand_two_qubit = expand_two_qubit

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        result.metadata = dict(circuit.metadata)
        intermediate_basis = ("cx", "h", "s", "sdg", "t", "tdg", "x", "y", "z", "id",
                              "rx", "ry", "rz", "u1", "u2", "u3", "u", "p", "sx",
                              "cz", "cy", "swap", "crz", "cu1", "cp", "rzz")
        for instruction in circuit:
            if instruction.is_directive or len(instruction.qubits) <= 2:
                result.append(instruction)
                continue
            for piece in decompose_instruction(instruction, intermediate_basis):
                result.append(piece)
        return result


class BasisTranslation(TranspilerPass):
    """Rewrite every gate into the target device's basis gate set.

    Combines the paper's "Translation to Basis Gates" stage with single-qubit
    resynthesis: arbitrary one-qubit gates become ``u1``/``u2``/``u3`` and
    two-qubit gates become CX sandwiches.
    """

    def __init__(self, basis_gates: Sequence[str] = DEFAULT_BASIS_GATES) -> None:
        self._basis_gates = tuple(gate.lower() for gate in basis_gates)

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        basis = self._basis_gates
        if context.target is not None:
            basis = tuple(context.target.basis_gates)
        result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        result.metadata = dict(circuit.metadata)
        for instruction in circuit:
            for piece in decompose_instruction(instruction, basis):
                result.append(piece)
        return result
