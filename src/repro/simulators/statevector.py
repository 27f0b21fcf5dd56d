"""Noise-free statevector simulation.

This simulator plays the role of the "noise-free simulator (e.g. QASM
simulator)" from the paper: the oracle scheduling baseline records correct
outputs with it, and the transpiler's equivalence tests use it to check that
compiled circuits still implement the original computation.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import SimulationError
from repro.utils.rng import SeedLike, ensure_generator

#: Refuse to allocate statevectors beyond this width; wider circuits must be
#: compacted onto their active qubits first (see :func:`compact_circuit`).
MAX_STATEVECTOR_QUBITS = 22


def apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a k-qubit ``matrix`` to ``qubits`` of ``state``.

    ``state`` may be a single statevector of shape ``(2**num_qubits,)`` or a
    batch of statevectors of shape ``(batch, 2**num_qubits)``; the same gate
    is applied to every batch entry (the batched form is how the Monte-Carlo
    noisy simulator evolves all shots at once).
    """
    state = np.asarray(state, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(f"Matrix shape {matrix.shape} does not act on {k} qubit(s)")
    original_shape = state.shape
    batch_shape = original_shape[:-1]
    batch_ndim = len(batch_shape)
    tensor = state.reshape(batch_shape + (2,) * num_qubits)
    # Axis of qubit q in the reshaped tensor (little-endian: qubit 0 is the
    # least significant bit, i.e. the last axis).
    qubit_axes = [batch_ndim + (num_qubits - 1 - q) for q in qubits]
    gate_tensor = matrix.reshape((2,) * (2 * k))
    input_axes = [k + (k - 1 - p) for p in range(k)]
    contracted = np.tensordot(gate_tensor, tensor, axes=(input_axes, qubit_axes))
    # tensordot places the gate's output axes first (most significant local
    # bit first) followed by the uncontracted tensor axes in original order;
    # restore the canonical axis order before reshaping back.
    total_axes = batch_ndim + num_qubits
    remaining = [axis for axis in range(total_axes) if axis not in qubit_axes]
    current_position: Dict[int, int] = {}
    for p in range(k):
        current_position[qubit_axes[p]] = k - 1 - p
    for offset, axis in enumerate(remaining):
        current_position[axis] = k + offset
    order = [current_position[axis] for axis in range(total_axes)]
    restored = np.transpose(contracted, order)
    return restored.reshape(original_shape)


def compact_circuit(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[int, int]]:
    """Compress ``circuit`` onto its active qubits.

    Transpiled circuits are as wide as their target device (up to 100 qubits
    in the paper's fleet) but only touch a handful of physical qubits.  This
    helper relabels the active qubits ``0..k-1`` so the statevector and
    stabilizer simulators only pay for the qubits that matter.

    Returns the compacted circuit and the mapping from original (physical)
    qubit index to compacted index.
    """
    active = sorted(circuit.used_qubits())
    if not active:
        empty = QuantumCircuit(1, max(circuit.num_clbits, 1), name=circuit.name)
        return empty, {}
    mapping = {physical: logical for logical, physical in enumerate(active)}
    compact = QuantumCircuit(len(active), circuit.num_clbits, name=circuit.name)
    compact.metadata = dict(circuit.metadata)
    for instruction in circuit:
        if instruction.name == "barrier":
            qubits = tuple(mapping[q] for q in instruction.qubits if q in mapping)
            if qubits:
                compact.append(Instruction("barrier", qubits))
            continue
        qubits = tuple(mapping[q] for q in instruction.qubits)
        compact.append(Instruction(instruction.name, qubits, instruction.clbits, instruction.params))
    return compact, mapping


class StatevectorSimulator:
    """Exact simulator producing final statevectors and sampled counts."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    # ------------------------------------------------------------------ #
    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector of the unitary part of ``circuit``.

        Measurements are ignored (they only define which bits are sampled);
        resets and mid-circuit measurement followed by further gates on the
        same qubit are rejected.
        """
        self._validate(circuit)
        num_qubits = circuit.num_qubits
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        for instruction in circuit:
            if instruction.is_directive:
                continue
            state = apply_matrix(state, instruction.matrix(), instruction.qubits, num_qubits)
        return state

    def probabilities(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Return the ideal outcome distribution over the measured clbits."""
        state = self.statevector(circuit)
        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        return _project_probabilities(state, measurement_map, circuit.num_qubits, circuit.num_clbits)

    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> SimulationResult:
        """Execute ``circuit`` and sample ``shots`` measurement outcomes."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        state = self.statevector(circuit)
        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        distribution = _project_probabilities(
            state, measurement_map, circuit.num_qubits, circuit.num_clbits
        )
        outcomes = list(distribution.keys())
        probabilities = np.array([distribution[o] for o in outcomes])
        probabilities = probabilities / probabilities.sum()
        samples = self._rng.multinomial(shots, probabilities)
        counts = {outcome: int(count) for outcome, count in zip(outcomes, samples) if count > 0}
        return SimulationResult(
            counts=counts,
            shots=shots,
            statevector=state,
            metadata={"simulator": "statevector", "ideal": True},
        )

    # ------------------------------------------------------------------ #
    def _validate(self, circuit: QuantumCircuit) -> None:
        if circuit.num_qubits > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(
                f"Circuit has {circuit.num_qubits} qubits; statevector simulation is "
                f"limited to {MAX_STATEVECTOR_QUBITS}. Compact the circuit onto its "
                "active qubits with compact_circuit() first."
            )
        measured: set = set()
        for instruction in circuit:
            if instruction.name == "reset":
                raise SimulationError("StatevectorSimulator does not support reset")
            if instruction.is_measurement:
                measured.add(instruction.qubits[0])
            elif not instruction.is_directive:
                overlap = measured.intersection(instruction.qubits)
                if overlap:
                    raise SimulationError(
                        "Mid-circuit measurement followed by further gates on qubit(s) "
                        f"{sorted(overlap)} is not supported"
                    )


def _project_probabilities(
    state: np.ndarray,
    measurement_map: Dict[int, int],
    num_qubits: int,
    num_clbits: int,
) -> Dict[str, float]:
    """Project state probabilities onto measured classical bits."""
    probabilities = np.abs(state) ** 2
    distribution: Dict[str, float] = {}
    width = max(num_clbits, 1)
    measured_qubits = sorted(measurement_map)
    for basis_index, probability in enumerate(probabilities):
        if probability < 1e-15:
            continue
        bits = ["0"] * width
        for qubit in measured_qubits:
            clbit = measurement_map[qubit]
            bit = (basis_index >> qubit) & 1
            bits[width - 1 - clbit] = str(bit)
        key = "".join(bits)
        distribution[key] = distribution.get(key, 0.0) + float(probability)
    return distribution
