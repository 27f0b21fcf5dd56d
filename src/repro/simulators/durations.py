"""Gate-duration bookkeeping: how long a circuit runs on a device.

The cloud simulation's execution-time model charges each job the wall-clock
duration of its circuit under a simple fixed-duration gate model (one
duration per gate arity, as hardware vendors publish for their native gate
sets) and as-soon-as-possible scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.utils.exceptions import SimulationError

#: Representative superconducting-transmon gate durations in nanoseconds.
DEFAULT_ONE_QUBIT_NS = 35.0
DEFAULT_TWO_QUBIT_NS = 300.0
DEFAULT_READOUT_NS = 3000.0


@dataclass(frozen=True)
class GateDurations:
    """Fixed gate durations (nanoseconds) per operation class."""

    one_qubit_ns: float = DEFAULT_ONE_QUBIT_NS
    two_qubit_ns: float = DEFAULT_TWO_QUBIT_NS
    readout_ns: float = DEFAULT_READOUT_NS

    def __post_init__(self) -> None:
        for label, value in (
            ("one_qubit_ns", self.one_qubit_ns),
            ("two_qubit_ns", self.two_qubit_ns),
            ("readout_ns", self.readout_ns),
        ):
            if value < 0:
                raise SimulationError(f"{label} must be non-negative, got {value}")

    def duration_of(self, num_qubits: int, is_measurement: bool = False) -> float:
        """Duration of one instruction given its operand count."""
        if is_measurement:
            return self.readout_ns
        if num_qubits <= 1:
            return self.one_qubit_ns
        if num_qubits == 2:
            return self.two_qubit_ns
        # Multi-qubit gates are decomposed by the transpiler; charge them as a
        # CX ladder when they do show up un-decomposed.
        return self.two_qubit_ns * (num_qubits - 1)


def qubit_finish_times(circuit: QuantumCircuit, durations: Optional[GateDurations] = None) -> Dict[int, float]:
    """As-soon-as-possible finish time (ns) of each qubit's last operation.

    Instructions are scheduled greedily: each starts when all of its operands
    are free.
    """
    durations = durations or GateDurations()
    finish: Dict[int, float] = {qubit: 0.0 for qubit in range(circuit.num_qubits)}
    for instruction in circuit:
        if instruction.name == "barrier":
            # A barrier synchronises its operands.
            operands = instruction.qubits or tuple(range(circuit.num_qubits))
            level = max(finish[qubit] for qubit in operands) if operands else 0.0
            for qubit in operands:
                finish[qubit] = level
            continue
        length = durations.duration_of(len(instruction.qubits), instruction.is_measurement)
        start = max(finish[qubit] for qubit in instruction.qubits)
        for qubit in instruction.qubits:
            finish[qubit] = start + length
    return finish


def circuit_duration(circuit: QuantumCircuit, durations: Optional[GateDurations] = None) -> float:
    """Wall-clock duration (ns) of the circuit under as-soon-as-possible scheduling."""
    finish = qubit_finish_times(circuit, durations)
    return max(finish.values()) if finish else 0.0
