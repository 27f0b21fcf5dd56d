"""Simulation engines: statevector, stabilizer (CHP), exact density matrix and noisy Monte-Carlo."""

from repro.simulators.batched_stabilizer import (
    BatchedStabilizerSimulator,
    BatchedStabilizerState,
    probe_deterministic_outcome,
)
from repro.simulators.density import DENSITY_LIMIT, OutcomeLaw, outcome_law
from repro.simulators.durations import GateDurations, circuit_duration, qubit_finish_times
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
    "DENSITY_LIMIT",
    "GateDurations",
    "probe_deterministic_outcome",
    "MAX_STATEVECTOR_QUBITS",
    "NoiseModel",
    "NoisyStabilizerSimulator",
    "NoisyStatevectorSimulator",
    "OutcomeLaw",
    "PrecompiledExecution",
    "SimulationResult",
    "StabilizerSimulator",
    "StabilizerState",
    "StatevectorSimulator",
    "apply_matrix",
    "circuit_duration",
    "compact_circuit",
    "counts_to_probabilities",
    "execute_with_noise",
    "hellinger_fidelity",
    "is_stabilizer_gate",
    "marginal_counts",
    "outcome_law",
    "precompile_execution",
    "qubit_finish_times",
    "success_probability",
    "total_variation_distance",
    "uniform_counts",
]
