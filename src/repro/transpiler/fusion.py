"""Single-qubit Clifford fusion: collapse adjacent Clifford runs into one gate.

Every run of adjacent single-qubit Clifford gates on the same wire is a
single element of the 24-element single-qubit Clifford group, so the run can
be replaced by that element's shortest primitive-gate sequence (1–3 native
gates) from :func:`repro.circuits.clifford_utils.single_qubit_clifford_library`,
giving a canonical, shorter form of the logical circuit.

Unlike :class:`~repro.transpiler.passes.optimize.Optimize1QubitGates` — which
resynthesises runs into parameterised ``u``-gates for a device basis — this
pass stays inside the stabilizer-native gate set, so the fused circuit remains
directly executable on the tableau engines.  Tableau evolution conjugates by
the gate's Clifford and is therefore invariant under global phase, hence a
fused circuit produces *bit-identical* ideal stabilizer statistics to its
unfused original under the same seed (asserted by ``tests/plans/`` and the
``BENCH_plans.json`` fusion-equivalence check).

Non-Clifford gates, measurements, resets and multi-qubit gates act as run
boundaries and pass through untouched, so fusion is safe on arbitrary input
circuits — it simply finds fewer runs to collapse.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_utils import clifford_sequence_for, closest_single_qubit_clifford
from repro.circuits.instruction import Instruction
from repro.transpiler.context import TranspileContext
from repro.transpiler.passes.base import TranspilerPass

__all__ = ["FuseCliffordRuns", "fuse_clifford_runs"]

#: Overlap below which a composed run is *not* snapped (kept verbatim).  For
#: exact Clifford inputs the composition is exactly Clifford, so this only
#: triggers on accumulated float error far beyond double precision.
_SNAP_TOLERANCE = 1e-6


def _is_fusable(instruction: Instruction) -> bool:
    """Whether an instruction may join a single-qubit Clifford run."""
    if instruction.is_directive or instruction.is_measurement:
        return False
    if instruction.name == "reset" or instruction.clbits:
        return False
    if len(instruction.qubits) != 1:
        return False
    return clifford_sequence_for(instruction) is not None


def fuse_clifford_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse every adjacent single-qubit Clifford run of ``circuit``.

    Each run is composed into one 2x2 matrix, snapped to its element of the
    Clifford group and re-emitted as that element's shortest native gate
    sequence; runs composing to the identity disappear entirely.  Everything
    else (multi-qubit gates, measurements, resets, barriers, non-Clifford
    gates) is copied through unchanged and terminates the runs it touches.
    """
    result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    result.metadata = dict(circuit.metadata)
    pending: Dict[int, List[Instruction]] = {}

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, [])
        if not run:
            return
        if len(run) == 1:
            # A lone gate is already minimal; keep it verbatim so circuits
            # with nothing to fuse round-trip with an unchanged gate stream.
            result.append(run[0])
            return
        matrix = np.eye(2, dtype=complex)
        for gate in run:
            matrix = gate.matrix() @ matrix
        sequence, overlap = closest_single_qubit_clifford(matrix)
        if overlap < 1.0 - _SNAP_TOLERANCE:
            for gate in run:
                result.append(gate)
            return
        for name in sequence:
            if name == "id":
                continue
            result.append(Instruction(name, (qubit,)))

    def flush_all() -> None:
        for qubit in list(pending):
            flush(qubit)

    for instruction in circuit:
        if _is_fusable(instruction):
            pending.setdefault(instruction.qubits[0], []).append(instruction)
            continue
        for qubit in instruction.qubits:
            flush(qubit)
        if instruction.name == "barrier":
            flush_all()
        result.append(instruction)
    flush_all()
    return result


class FuseCliffordRuns(TranspilerPass):
    """Pass-manager wrapper around :func:`fuse_clifford_runs`."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        return fuse_clifford_runs(circuit)
