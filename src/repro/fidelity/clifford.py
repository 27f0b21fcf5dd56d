"""Cliffordization: turning an arbitrary circuit into its Clifford canary.

The Clifford canary (Section 3.4.1, following Quancorde and Clifford-assisted
pass selection) is "the original circuit without its non-Clifford gates": the
circuit structure — in particular every noisy two-qubit gate — is preserved
while each non-Clifford gate is snapped to its closest Clifford replacement,
so the canary stays classically simulable yet representative of how the real
circuit degrades on a given device.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_utils import closest_single_qubit_clifford
from repro.circuits.gates import CLIFFORD_GATE_NAMES
from repro.circuits.instruction import Instruction
from repro.transpiler.decompositions import DECOMPOSITION_RULES
from repro.utils.exceptions import FidelityEstimationError


def is_clifford_instruction(instruction: Instruction, atol: float = 1e-9) -> bool:
    """``True`` when ``instruction`` implements a Clifford operation.

    Named Clifford gates are recognised directly; parameterised single-qubit
    gates are checked against the 24-element Clifford library; two-qubit
    controlled-phase style gates are Clifford when their angle is a multiple
    of pi (cu1/cp) or of pi (rzz/crz at the +-pi points used in practice).
    """
    if instruction.name in ("measure", "reset", "barrier"):
        return True
    if instruction.name in CLIFFORD_GATE_NAMES and not instruction.params:
        return True
    if len(instruction.qubits) == 1:
        _, overlap = closest_single_qubit_clifford(instruction.matrix())
        return overlap > 1.0 - atol
    if instruction.name in ("cu1", "cp"):
        lam = instruction.params[0] % (2.0 * math.pi)
        return min(abs(lam), abs(lam - math.pi), abs(lam - 2.0 * math.pi)) < atol
    if instruction.name in ("crz", "rzz"):
        theta = instruction.params[0] % (2.0 * math.pi)
        return min(abs(theta - k * math.pi) for k in range(3)) < atol
    return False


def is_clifford_circuit(circuit: QuantumCircuit) -> bool:
    """``True`` when every instruction of ``circuit`` is Clifford."""
    return all(is_clifford_instruction(instruction) for instruction in circuit)


def _cliffordize_instruction(instruction: Instruction) -> List[Instruction]:
    """Replace one instruction with its Clifford counterpart(s)."""
    if instruction.name in ("measure", "reset", "barrier"):
        return [instruction]
    if instruction.name in CLIFFORD_GATE_NAMES and not instruction.params:
        return [instruction]
    qubits = instruction.qubits
    if len(qubits) == 1:
        sequence, overlap = closest_single_qubit_clifford(instruction.matrix())
        if overlap > 1.0 - 1e-9 and len(sequence) == 1:
            return [Instruction(sequence[0], qubits)]
        return [Instruction(name, qubits) for name in sequence if name != "id"] or [Instruction("id", qubits)]
    if instruction.name in ("cu1", "cp", "crz", "rzz"):
        # Phase-style interactions snap to CZ: the canary must keep the noisy
        # two-qubit structure of the original circuit, so the interaction is
        # preserved even when the angle is closer to zero than to pi.
        return [Instruction("cz", qubits)]
    if instruction.name == "ch":
        return [Instruction("cx", qubits)]
    if instruction.name in DECOMPOSITION_RULES:
        # Multi-qubit non-Clifford gates (ccx, ccz, ...) are expanded exactly
        # as the transpiler would expand them, then each piece is snapped.
        pieces = DECOMPOSITION_RULES[instruction.name](instruction.qubits, instruction.params)
        result: List[Instruction] = []
        for piece in pieces:
            result.extend(_cliffordize_instruction(piece))
        return result
    raise FidelityEstimationError(f"Cannot cliffordize gate '{instruction.name}'")


def cliffordize(circuit: QuantumCircuit, name: Optional[str] = None) -> QuantumCircuit:
    """Build the Clifford canary version of ``circuit``.

    Clifford gates (including measurements and barriers) are kept verbatim;
    every non-Clifford gate is replaced by its nearest Clifford while
    preserving which qubits interact, so the canary accumulates noise on the
    same device edges as the original circuit.
    """
    canary = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, name or f"{circuit.name}_canary")
    canary.metadata = dict(circuit.metadata)
    canary.metadata["canary_of"] = circuit.name
    # Gates the stabilizer simulator executes natively; everything else is
    # rewritten, even if it is formally Clifford (e.g. cu1 at angle pi).
    stabilizer_native = {"id", "x", "y", "z", "h", "s", "sdg", "sx", "cx", "cz", "cy", "swap"}
    replaced = 0
    for instruction in circuit:
        if instruction.name in ("measure", "reset", "barrier"):
            canary.append(instruction)
            continue
        if instruction.name in stabilizer_native and not instruction.params:
            canary.append(instruction)
            continue
        pieces = _cliffordize_instruction(instruction)
        for piece in pieces:
            canary.append(piece)
        if not (is_clifford_instruction(instruction) and len(pieces) == 1 and pieces[0].name == instruction.name):
            replaced += 1
    canary.metadata["non_clifford_replaced"] = replaced
    return canary
