"""The Clifford-canary fidelity estimation protocol (Section 3.4.1).

For a user circuit and a candidate device the protocol is:

1. build the Clifford canary of the circuit (:func:`repro.fidelity.cliffordize`);
2. compute the canary's *ideal* outcome distribution classically — the
   Gottesman-Knill theorem makes this polynomial even for 100-qubit devices
   (we use the stabilizer simulator);
3. transpile the canary to the candidate device and execute it under the
   device's noise model.  A ranking compiles once and places per device:
   the transpiler's device-independent virtual stage and its post-routing
   passes run once per basis set, and a device pays for its layout
   (:func:`~repro.transpiler.preset.place`, memoised process-wide in
   :func:`~repro.utils.cache.placement_cache`).  A device whose layout needs
   no SWAP builds no circuit: its compiled canary would be the basis set's
   post-routing output relabelled through the layout, so its report reads
   the layout, no SWAP and that output's two-qubit count
   (:func:`~repro.transpiler.preset.swap_free_placeable`).  A ranking also
   simulates once: those devices run the same circuit, and only the error
   rates read through each layout differ, so their exact outcome laws come
   from one density-matrix pass with a device axis, and each device draws
   its shots under its own seed.  Only a device whose layout needs SWAPs,
   or whose canary that pass does not take, gets a full
   :func:`~repro.transpiler.preset.transpile` and executes on its own;
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
from repro.fidelity.clifford import cliffordize
from repro.simulators.density import DENSITY_LIMIT, noise_sites, outcome_laws, read_rates
from repro.simulators.noisy import execute_with_noise
from repro.simulators.result import hellinger_fidelity
from repro.simulators.stabilizer import StabilizerSimulator, circuit_is_stabilizer_compatible
from repro.simulators.statevector import StatevectorSimulator, compact_circuit
from repro.transpiler.preset import VirtualCircuit, place, swap_free_placeable, transpile, virtual_stage
from repro.utils.cache import placement_cache, placement_key, structural_circuit_hash
from repro.utils.exceptions import FidelityEstimationError
from repro.utils.rng import SeedLike, derive_seed

#: Default shot budget used for canary executions.
DEFAULT_CANARY_SHOTS = 512


@dataclass(frozen=True)
class _Placement:
    """What a ranking reads of one device's compiled canary.

    ``batch`` is the density batch (see :func:`_density_batch`) of a
    swap-free device's basis set, which builds no circuit; every other
    device carries its full :func:`~repro.transpiler.preset.transpile`
    output in ``circuit``.
    """

    mapping: Dict[int, int]
    swaps_inserted: int
    two_qubit_gates: int
    batch: Optional[Tuple[QuantumCircuit, Tuple[int, ...]]] = None
    circuit: Optional[QuantumCircuit] = None


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
        return self.estimate_many(circuit, [backend])[0]

    def _canary_for(
        self, circuit: QuantumCircuit, backends: Sequence[Backend]
    ) -> Tuple[QuantumCircuit, Dict[str, int], List[VirtualCircuit]]:
        """The canary of ``circuit``, its ideal counts and its virtual-stage output for each of ``backends``.

        Memoized for the last circuit, keyed by its structural hash and name
        (the name seeds the canary's transpile and execution), so a mutated
        or different circuit rebuilds.  Within that entry the output of
        :func:`~repro.transpiler.preset.virtual_stage` is kept per ordered
        basis set, the only part of the device that stage reads, so a fleet
        ranking pays it once per basis set and each device pays only the
        physical stage's layout (see :meth:`_place`).  The virtual circuit
        keeps its post-routing output, so those passes too run once per basis
        set, on the first device whose layout needs no SWAP.  The memo is
        read once per call: a racing caller can only rebuild, never pair one
        circuit's canary with another's counts or virtual circuit.
        """
        key = (structural_circuit_hash(circuit), circuit.name)
        entry = self._last_canary
        if entry is None or entry[0] != key:
            canary = self.build_canary(circuit)
            entry = (key, canary, self.ideal_distribution(canary), {})
            self._last_canary = entry
        _, canary, ideal_counts, virtual_by_basis = entry
        virtuals = []
        for backend in backends:
            basis = backend.properties.basis_gates
            virtual = virtual_by_basis.get(basis)
            if virtual is None:
                virtual = virtual_stage(canary, backend, self._optimization_level)
                virtual_by_basis[basis] = virtual
            virtuals.append(virtual)
        return canary, ideal_counts, virtuals

    def estimate_many(
        self,
        circuit: QuantumCircuit,
        backends: Sequence[Backend],
    ) -> List[CanaryReport]:
        """Estimate ``circuit``'s fidelity on every candidate device, as one batched simulation.

        Every device is checked for width before any canary runs.  The
        canary is built once (:meth:`_canary_for`), each device gets its
        layout and, only where it needs SWAPs, a full :func:`transpile`
        (:meth:`_place`), and the noisy executions run together
        (:meth:`_execute`).  Reports come back in ``backends`` order and
        equal one :meth:`estimate` per device, and each equals the report of
        a full per-device transpile and execution.
        """
        backends = list(backends)
        for backend in backends:
            if backend.num_qubits < circuit.num_qubits:
                raise FidelityEstimationError(
                    f"Device '{backend.name}' has {backend.num_qubits} qubits; circuit "
                    f"'{circuit.name}' needs {circuit.num_qubits}"
                )
        if not backends:
            return []
        canary, ideal_counts, virtuals = self._canary_for(circuit, backends)
        placements = self._place(circuit.name, backends, virtuals)
        noisy = self._execute(circuit.name, backends, placements)
        return [
            CanaryReport(
                device=backend.name,
                circuit_name=circuit.name,
                canary_fidelity=hellinger_fidelity(counts, ideal_counts),
                swaps_inserted=placement.swaps_inserted,
                two_qubit_gates=placement.two_qubit_gates,
                shots=self._shots,
                details={
                    "canary_gates": canary.size(),
                    "non_clifford_replaced": canary.metadata.get("non_clifford_replaced", 0),
                },
            )
            for backend, placement, counts in zip(backends, placements, noisy)
        ]

    def _place(
        self, circuit_name: str, backends: Sequence[Backend], virtuals: Sequence[VirtualCircuit]
    ) -> List[_Placement]:
        """Each device's layout, SWAP count and two-qubit count, in ``backends`` order.

        Every device's layout comes from :func:`~repro.transpiler.preset.place`
        through the process-wide :func:`~repro.utils.cache.placement_cache`,
        whose key covers all that choice reads, so a hit is the layout a
        fresh call would return.  A device whose layout needs no SWAP and
        whose basis set's canary the density batch takes builds no circuit:
        :func:`~repro.transpiler.preset.swap_free_placeable` runs the relabel
        path's checks on the placeable, and the report reads its two-qubit
        count.  Every other device gets the full
        :func:`~repro.transpiler.preset.transpile` from that layout, which
        relabels or routes exactly as a transpile that chose it would.
        """
        cache = placement_cache()
        # Per virtual circuit: its placeable's density batch and two-qubit count.
        swap_free: Dict[int, Tuple[Optional[Tuple[QuantumCircuit, Tuple[int, ...]]], int]] = {}
        placements = []
        for backend, virtual in zip(backends, virtuals):
            key = placement_key(virtual, backend.properties)
            layout = cache.get(key)
            if layout is None:
                layout = place(virtual, backend, self._optimization_level)
                cache.put(key, layout)
            placeable = swap_free_placeable(virtual, layout, backend)
            if placeable is not None:
                if id(virtual) not in swap_free:
                    swap_free[id(virtual)] = (_density_batch(placeable), placeable.num_two_qubit_gates())
                batch, two_qubit_gates = swap_free[id(virtual)]
                if batch is not None:
                    placements.append(_Placement(layout.mapping, 0, two_qubit_gates, batch=batch))
                    continue
            compiled = transpile(
                virtual,
                backend,
                optimization_level=self._optimization_level,
                initial_layout=layout,
                seed=derive_seed(self._seed, "canary-transpile", backend.name, circuit_name),
            )
            placements.append(
                _Placement(
                    compiled.initial_layout.mapping,
                    compiled.swaps_inserted,
                    compiled.two_qubit_gate_count(),
                    circuit=compiled.circuit,
                )
            )
        return placements

    def _execute(
        self,
        circuit_name: str,
        backends: Sequence[Backend],
        placements: Sequence[_Placement],
    ) -> List[Dict[str, int]]:
        """The noisy canary counts of each device, in ``backends`` order.

        The swap-free devices of one basis set run one circuit up to the
        physical qubits it lands on.  Their outcome laws are one batched
        density-matrix pass (:func:`~repro.simulators.density.outcome_laws`)
        over the post-routing output, compacted once on virtual wires, with
        one row of rates per device read through its layout from its live
        calibration.  Each device then draws its shots under its own seed,
        as :func:`~repro.simulators.noisy.execute_with_noise` would.  Every
        other device executes its compiled canary alone.
        """
        seeds = [derive_seed(self._seed, "canary-execute", backend.name, circuit_name) for backend in backends]
        counts: List[Optional[Dict[str, int]]] = [None] * len(backends)
        batches: Dict[int, List[int]] = {}
        for index, placement in enumerate(placements):
            if placement.batch is not None:
                batches.setdefault(id(placement.batch), []).append(index)
        for members in batches.values():
            compacted, wires = placements[members[0]].batch
            gates, readouts = noise_sites(compacted, wires)
            rows = []
            for index in members:
                physical = placements[index].mapping
                sites = (
                    tuple(tuple(physical[q] for q in operands) for operands in gates),
                    tuple(physical[q] for q in readouts),
                )
                rows.append(read_rates(sites, backends[index].properties))
            for index, law in zip(members, outcome_laws(compacted, rows)):
                counts[index] = law.draw(self._shots, seeds[index]).counts
        for index, backend in enumerate(backends):
            if counts[index] is None:
                counts[index] = execute_with_noise(
                    placements[index].circuit, backend.properties, shots=self._shots, seed=seeds[index]
                ).counts
        return counts

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


def _density_batch(placeable: QuantumCircuit) -> Optional[Tuple[QuantumCircuit, Tuple[int, ...]]]:
    """``placeable`` compacted onto its active wires, with the wire behind each compacted qubit.

    ``None`` when the density engine would not execute its placements alone
    (more than ``DENSITY_LIMIT`` active qubits), or when which qubit a
    classical bit reads could depend on the placement: the engines read
    qubits in ascending physical order and the last one measured into a
    shared classical bit wins, so only one-to-one measurement maps batch.
    """
    compacted, mapping = compact_circuit(placeable)
    measured = compacted.measurement_map()
    if not mapping or compacted.num_qubits > DENSITY_LIMIT:
        return None
    if not measured or len(set(measured.values())) < len(measured):
        return None
    return compacted, tuple(sorted(mapping))


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
        backend.properties,
        shots=shots,
        seed=derive_seed(seed, "oracle-execute", backend.name, circuit.name),
    )
    if circuit_is_stabilizer_compatible(prepared):
        ideal_counts = StabilizerSimulator(seed=derive_seed(seed, "oracle-ideal", circuit.name)).run(
            prepared, shots=shots
        ).counts
    else:
        compacted, _ = compact_circuit(prepared)
        ideal_counts = StatevectorSimulator(seed=derive_seed(seed, "oracle-ideal", circuit.name)).run(
            compacted, shots=shots
        ).counts
    return hellinger_fidelity(noisy.counts, ideal_counts)
