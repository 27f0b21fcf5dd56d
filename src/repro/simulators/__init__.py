"""Simulation engines: statevector, stabilizer (CHP) and noisy Monte-Carlo."""

from repro.simulators.batched_stabilizer import (
    BatchedStabilizerSimulator,
    BatchedStabilizerState,
    probe_deterministic_outcome,
)
from repro.simulators.channels import (
    PAULI_LABELS,
    ThermalRelaxation,
    amplitude_damping_probability,
    combine_error_probabilities,
    depolarizing_probabilities,
    thermal_relaxation_error,
)
from repro.simulators.durations import (
    GateDurations,
    circuit_duration,
    qubit_busy_times,
    qubit_finish_times,
    qubit_idle_times,
)
from repro.simulators.mitigation import MAX_MITIGATED_BITS, ReadoutMitigator
from repro.simulators.noise import NoiseModel
from repro.simulators.noisy import (
    BATCHED_STATEVECTOR_LIMIT,
    NoisyStabilizerSimulator,
    NoisyStatevectorSimulator,
    PrecompiledExecution,
    execute_with_noise,
    precompile_execution,
)
from repro.simulators.result import (
    SimulationResult,
    counts_to_probabilities,
    hellinger_fidelity,
    marginal_counts,
    success_probability,
    total_variation_distance,
    uniform_counts,
)
from repro.simulators.stabilizer import StabilizerSimulator, StabilizerState, is_stabilizer_gate
from repro.simulators.statevector import (
    MAX_STATEVECTOR_QUBITS,
    StatevectorSimulator,
    apply_matrix,
    compact_circuit,
)

__all__ = [
    "BATCHED_STATEVECTOR_LIMIT",
    "BatchedStabilizerSimulator",
    "BatchedStabilizerState",
    "GateDurations",
    "probe_deterministic_outcome",
    "MAX_MITIGATED_BITS",
    "MAX_STATEVECTOR_QUBITS",
    "NoiseModel",
    "NoisyStabilizerSimulator",
    "NoisyStatevectorSimulator",
    "PAULI_LABELS",
    "PrecompiledExecution",
    "ReadoutMitigator",
    "SimulationResult",
    "StabilizerSimulator",
    "StabilizerState",
    "StatevectorSimulator",
    "ThermalRelaxation",
    "amplitude_damping_probability",
    "apply_matrix",
    "circuit_duration",
    "combine_error_probabilities",
    "compact_circuit",
    "counts_to_probabilities",
    "depolarizing_probabilities",
    "execute_with_noise",
    "hellinger_fidelity",
    "is_stabilizer_gate",
    "marginal_counts",
    "precompile_execution",
    "qubit_busy_times",
    "qubit_finish_times",
    "qubit_idle_times",
    "success_probability",
    "thermal_relaxation_error",
    "total_variation_distance",
    "uniform_counts",
]
