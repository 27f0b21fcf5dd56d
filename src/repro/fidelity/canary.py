"""The Clifford-canary fidelity estimation protocol (Section 3.4.1).

For a user circuit and a candidate device the protocol is:

1. build the Clifford canary of the circuit (:func:`repro.fidelity.cliffordize`);
2. compute the canary's *ideal* outcome distribution classically — the
   Gottesman-Knill theorem makes this polynomial even for 100-qubit devices
   (we use the stabilizer simulator);
3. transpile the canary to the candidate device and execute it under the
   device's noise model (a ranking runs the transpiler's device-independent
   virtual stage once per basis set, and only the physical stage per device);
4. report the Hellinger fidelity between the noisy and ideal distributions.

Because the canary shares the original circuit's structure (especially its
two-qubit gates), its fidelity on a device is a good proxy for the fidelity
the user's real circuit would achieve there — which is exactly the signal
QRIO's fidelity-ranking scheduler needs, without ever knowing the correct
output of the (generally unsimulable) user circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.fidelity.clifford import cliffordize, is_clifford_circuit
from repro.simulators.noisy import execute_with_noise
from repro.simulators.result import SimulationResult, hellinger_fidelity
from repro.simulators.stabilizer import StabilizerSimulator
from repro.simulators.statevector import StatevectorSimulator, compact_circuit
from repro.transpiler.preset import VirtualCircuit, transpile, virtual_stage
from repro.utils.exceptions import FidelityEstimationError
from repro.utils.rng import SeedLike, derive_seed, ensure_generator

#: Default shot budget used for canary executions.
DEFAULT_CANARY_SHOTS = 512


@dataclass
class CanaryReport:
    """Outcome of estimating a circuit's fidelity on one device."""

    device: str
    circuit_name: str
    canary_fidelity: float
    swaps_inserted: int
    two_qubit_gates: int
    shots: int
    details: Dict[str, object] = field(default_factory=dict)


class CliffordCanaryEstimator:
    """Estimates execution fidelity on candidate devices via Clifford canaries."""

    def __init__(
        self,
        shots: int = DEFAULT_CANARY_SHOTS,
        optimization_level: int = 2,
        seed: SeedLike = None,
    ) -> None:
        if shots <= 0:
            raise FidelityEstimationError("shots must be positive")
        self._shots = shots
        self._optimization_level = optimization_level
        self._seed = seed
        #: ``(key, canary, ideal counts, virtual canary per basis set)`` of the
        #: last circuit estimated, so a fleet ranking builds its canary once and
        #: runs the transpiler's virtual stage once per basis set; replaced as
        #: one tuple.
        self._last_canary: Optional[
            Tuple[Tuple[str, str], QuantumCircuit, Dict[str, int], Dict[Tuple[str, ...], VirtualCircuit]]
        ] = None

    # ------------------------------------------------------------------ #
    def build_canary(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return the measured Clifford canary of ``circuit``."""
        return cliffordize(circuit.measured())

    def ideal_distribution(self, canary: QuantumCircuit) -> Dict[str, int]:
        """Classically simulate the canary's noise-free outcome counts.

        Seeded by the estimator's seed and the canary's name.  A fleet
        ranking runs it once: :meth:`_canary_for` keeps the counts of the
        last circuit estimated.
        """
        simulator = StabilizerSimulator(seed=derive_seed(self._seed, "canary-ideal", canary.name))
        return simulator.run(canary, shots=self._shots).counts

    def estimate(self, circuit: QuantumCircuit, backend: Backend) -> CanaryReport:
        """Estimate the fidelity ``circuit`` would achieve on ``backend``."""
        if backend.num_qubits < circuit.num_qubits:
            raise FidelityEstimationError(
                f"Device '{backend.name}' has {backend.num_qubits} qubits; circuit "
                f"'{circuit.name}' needs {circuit.num_qubits}"
            )
        canary, ideal_counts, virtual = self._canary_for(circuit, backend)
        compiled = transpile(
            virtual,
            backend,
            optimization_level=self._optimization_level,
            seed=derive_seed(self._seed, "canary-transpile", backend.name, circuit.name),
        )
        noisy = execute_with_noise(
            compiled.circuit,
            backend.noise_model(),
            shots=self._shots,
            seed=derive_seed(self._seed, "canary-execute", backend.name, circuit.name),
        )
        fidelity = hellinger_fidelity(noisy.counts, ideal_counts)
        return CanaryReport(
            device=backend.name,
            circuit_name=circuit.name,
            canary_fidelity=fidelity,
            swaps_inserted=compiled.swaps_inserted,
            two_qubit_gates=compiled.two_qubit_gate_count(),
            shots=self._shots,
            details={
                "canary_gates": canary.size(),
                "non_clifford_replaced": canary.metadata.get("non_clifford_replaced", 0),
            },
        )

    def _canary_for(
        self, circuit: QuantumCircuit, backend: Backend
    ) -> Tuple[QuantumCircuit, Dict[str, int], VirtualCircuit]:
        """The canary of ``circuit``, its ideal counts and its virtual-stage output for ``backend``.

        Memoized for the last circuit, keyed by its structural hash and name
        (the name seeds the canary's transpile and execution), so a mutated
        or different circuit rebuilds.  Within that entry the output of
        :func:`~repro.transpiler.preset.virtual_stage` is kept per ordered
        basis set, the only part of the device that stage reads, so a fleet
        ranking pays it once per basis set and each device's
        :func:`~repro.transpiler.preset.transpile` runs only the physical
        stage.  The memo is read once per call: a racing caller can only
        rebuild, never pair one circuit's canary with another's counts or
        virtual circuit.
        """
        # Imported lazily: repro.core's package init imports this module.
        from repro.core.cache import structural_circuit_hash

        key = (structural_circuit_hash(circuit), circuit.name)
        entry = self._last_canary
        if entry is None or entry[0] != key:
            canary = self.build_canary(circuit)
            entry = (key, canary, self.ideal_distribution(canary), {})
            self._last_canary = entry
        _, canary, ideal_counts, virtual_by_basis = entry
        basis = backend.properties.basis_gates
        virtual = virtual_by_basis.get(basis)
        if virtual is None:
            virtual = virtual_stage(canary, backend, self._optimization_level)
            virtual_by_basis[basis] = virtual
        return canary, ideal_counts, virtual

    def estimate_many(
        self,
        circuit: QuantumCircuit,
        backends: Sequence[Backend],
    ) -> List[CanaryReport]:
        """Estimate ``circuit``'s fidelity on every candidate device.

        Every device is checked for width before any canary runs, then
        estimated with :meth:`estimate`; reports come back in ``backends``
        order.
        """
        backends = list(backends)
        for backend in backends:
            if backend.num_qubits < circuit.num_qubits:
                raise FidelityEstimationError(
                    f"Device '{backend.name}' has {backend.num_qubits} qubits; circuit "
                    f"'{circuit.name}' needs {circuit.num_qubits}"
                )
        return [self.estimate(circuit, backend) for backend in backends]

    def rank_backends(
        self,
        circuit: QuantumCircuit,
        backends: Iterable[Backend],
    ) -> List[CanaryReport]:
        """Estimate fidelity on every feasible backend, highest fidelity first.

        Backends with fewer qubits than the circuit needs are skipped — in
        the full QRIO flow the scheduler's filtering stage removes them
        before any scoring request reaches the meta server.
        """
        feasible = [backend for backend in backends if backend.num_qubits >= circuit.num_qubits]
        reports = self.estimate_many(circuit, feasible)
        return sorted(reports, key=lambda report: (-report.canary_fidelity, report.device))


def achieved_fidelity(
    circuit: QuantumCircuit,
    backend: Backend,
    shots: int = DEFAULT_CANARY_SHOTS,
    optimization_level: int = 2,
    seed: SeedLike = None,
) -> float:
    """*True* achieved fidelity of ``circuit`` on ``backend``.

    This is the oracle quantity of the Fig. 7 experiment: the noise-free
    output of the actual user circuit (obtained with the statevector
    simulator, which is only possible because the evaluation workloads are
    small) compared against the device's noisy execution of that circuit.
    """
    prepared = circuit.measured()
    compiled = transpile(
        prepared,
        backend,
        optimization_level=optimization_level,
        seed=derive_seed(seed, "oracle-transpile", backend.name, circuit.name),
    )
    noisy = execute_with_noise(
        compiled.circuit,
        backend.noise_model(),
        shots=shots,
        seed=derive_seed(seed, "oracle-execute", backend.name, circuit.name),
    )
    if is_clifford_circuit(prepared):
        ideal_counts = StabilizerSimulator(seed=derive_seed(seed, "oracle-ideal", circuit.name)).run(
            prepared, shots=shots
        ).counts
    else:
        compacted, _ = compact_circuit(prepared)
        ideal_counts = StatevectorSimulator(seed=derive_seed(seed, "oracle-ideal", circuit.name)).run(
            compacted, shots=shots
        ).counts
    return hellinger_fidelity(noisy.counts, ideal_counts)
