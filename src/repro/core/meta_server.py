"""The QRIO Meta Server: backend store, job metadata store, scoring endpoint.

Section 3.4: the meta server "is primarily responsible for storing metadata
for a job and responding to score requests for the job".  It keeps a copy of
every vendor backend file, receives the per-job metadata of Table 1 from the
visualizer (fidelity threshold + original circuit, or the topology circuit),
and answers ``score(job, device)`` requests through the job's registry
placement policy: :class:`~repro.policies.ThresholdFidelityPolicy` (Clifford
canaries, Section 3.4.1) for a fidelity job, or
:class:`~repro.policies.TopologyPlacementPolicy` (Mapomatic-style embedding
cost, Section 3.4.2) for a topology job.  Lower scores are better; a device
the policy filters out scores :data:`~repro.policies.INFEASIBLE_SCORE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.core.visualizer import MetaServerPayload
from repro.policies import (
    INFEASIBLE_SCORE,
    PlacementContext,
    PlacementPolicy,
    ThresholdFidelityPolicy,
    TopologyPlacementPolicy,
)
from repro.qasm.parser import parse_qasm
from repro.utils.exceptions import MetaServerError
from repro.utils.rng import SeedLike, derive_seed
from repro.utils.validation import require_probability


@dataclass
class JobMetadata:
    """What the meta server stores per job (one row of Table 1)."""

    job_name: str
    strategy: str
    fidelity_threshold: Optional[float] = None
    circuit: Optional[QuantumCircuit] = None
    topology_circuit: Optional[QuantumCircuit] = None

    def __post_init__(self) -> None:
        """Validate the row: what each strategy needs, and nothing unknown."""
        if self.strategy == "fidelity":
            if self.fidelity_threshold is None or self.circuit is None:
                raise MetaServerError(
                    "A fidelity submission must include the fidelity number and the circuit QASM"
                )
            require_probability(self.fidelity_threshold, "fidelity_threshold")
        elif self.strategy == "topology":
            if self.topology_circuit is None:
                raise MetaServerError("A topology submission must include the topology circuit")
            if self.topology_circuit.num_two_qubit_gates() == 0:
                raise MetaServerError("A topology circuit must contain at least one interaction")
        else:
            raise MetaServerError(f"Unknown strategy '{self.strategy}'")

    def describe(self) -> Dict[str, object]:
        """Structured summary used by logs and tests."""
        return {
            "job_name": self.job_name,
            "strategy": self.strategy,
            "fidelity_threshold": self.fidelity_threshold,
            "has_circuit": self.circuit is not None,
            "has_topology_circuit": self.topology_circuit is not None,
        }


class MetaServer:
    """In-process reproduction of the QRIO meta server."""

    def __init__(self, canary_shots: int = 512, seed: SeedLike = None) -> None:
        self._backends: Dict[str, Backend] = {}
        self._jobs: Dict[str, JobMetadata] = {}
        #: Per-job ranking: the registry policy plus the placement context
        #: built from the job's metadata.
        self._rankings: Dict[str, Tuple[PlacementPolicy, PlacementContext]] = {}
        self._canary_shots = canary_shots
        self._seed = seed

    # ------------------------------------------------------------------ #
    # Backend store (the vendor backend.py copies of Section 3.1)
    # ------------------------------------------------------------------ #
    def register_backend(self, backend: Backend) -> None:
        """Store a copy of a vendor backend (one per cluster node)."""
        self._backends[backend.name] = backend

    def register_backends(self, backends) -> None:
        """Store many backends at once."""
        for backend in backends:
            self.register_backend(backend)

    def backend(self, name: str) -> Backend:
        """Retrieve a stored backend by device name."""
        if name not in self._backends:
            raise MetaServerError(f"Meta server has no backend named '{name}'")
        return self._backends[name]

    def refresh_backend(self, backend: Backend) -> None:
        """Replace a stored backend after a calibration update.

        Scores computed against the stale calibration data are forgotten, so
        subsequent scheduler queries re-score the device.
        """
        self._backends[backend.name] = backend
        self._forget_scores()

    def remove_backend(self, name: str) -> None:
        """Forget a vendor backend (device decommissioned) and its cached scores."""
        self._backends.pop(name, None)
        self._forget_scores()

    def _forget_scores(self) -> None:
        """Advance every job's calibration epoch.

        Each score is held once, by the job's policy: the fidelity cache of
        its placement context or the topology policy's embedding memo.  Both
        key on the epoch, so every later score is computed afresh.
        """
        for _, ctx in self._rankings.values():
            ctx.calibration_epoch += 1

    def backend_names(self) -> List[str]:
        """Names of all stored backends."""
        return sorted(self._backends)

    # ------------------------------------------------------------------ #
    # Job metadata (Table 1)
    # ------------------------------------------------------------------ #
    def upload_job_metadata(self, payload: MetaServerPayload) -> JobMetadata:
        """Accept the visualizer's per-job upload: parse its QASM, validate, store."""
        fidelity = payload.strategy == "fidelity"
        qasm = payload.circuit_qasm if fidelity else payload.topology_qasm
        suffix = "circuit" if fidelity else "topology"
        circuit = None if qasm is None else parse_qasm(qasm, name=f"{payload.job_name}_{suffix}")
        return self.store_job_metadata(
            JobMetadata(
                job_name=payload.job_name,
                strategy=payload.strategy,
                fidelity_threshold=payload.fidelity_threshold if fidelity else None,
                circuit=circuit if fidelity else None,
                topology_circuit=None if fidelity else circuit,
            )
        )

    def store_job_metadata(self, metadata: JobMetadata) -> JobMetadata:
        """Store a validated metadata row, replacing the job's ranking if it had one."""
        self._jobs[metadata.job_name] = metadata
        self._rankings.pop(metadata.job_name, None)
        return metadata

    def job_metadata(self, job_name: str) -> JobMetadata:
        """Stored metadata for one job."""
        if job_name not in self._jobs:
            raise MetaServerError(f"Meta server has no metadata for job '{job_name}'")
        return self._jobs[job_name]

    def has_fidelity_threshold(self, job_name: str) -> bool:
        """The database check of Section 3.4: does the job carry a fidelity?"""
        return self.job_metadata(job_name).fidelity_threshold is not None

    # ------------------------------------------------------------------ #
    # Scoring endpoint
    # ------------------------------------------------------------------ #
    def ranking(self, job_name: str) -> Tuple[PlacementPolicy, PlacementContext]:
        """The job's registry policy and the placement context of its metadata.

        Built on the job's first request and kept until its metadata changes.
        The context's ``fleet`` is empty here: the scheduler sets it to the
        nodes that pass its filters before the policy decides.
        """
        if job_name in self._rankings:
            return self._rankings[job_name]
        metadata = self.job_metadata(job_name)
        if metadata.strategy == "fidelity":
            policy: PlacementPolicy = ThresholdFidelityPolicy(
                estimator="canary",
                canary_shots=self._canary_shots,
                seed=derive_seed(self._seed, "meta-fidelity", job_name),
            )
            ctx = PlacementContext(
                fleet=(),
                circuit=metadata.circuit,
                job_name=job_name,
                fidelity_threshold=metadata.fidelity_threshold,
            )
        else:
            topology = metadata.topology_circuit
            policy = TopologyPlacementPolicy(seed=derive_seed(self._seed, "meta-topology", job_name))
            ctx = PlacementContext(
                fleet=(),
                job_name=job_name,
                strategy="topology",
                topology_edges=tuple(tuple(inst.qubits) for inst in topology if inst.is_two_qubit_gate),
                required_qubits=topology.num_qubits,
            )
        self._rankings[job_name] = (policy, ctx)
        return policy, ctx

    def score(self, job_name: str, device_name: str) -> float:
        """Score ``device_name`` for ``job_name`` (lower is better).

        The per-device endpoint of Section 3.4.  The scheduler does not call
        it: it runs the same policy over the whole shortlist at once
        (:meth:`ranking`).  Repeat requests are served by the policy's own
        memo, keyed by the job's calibration epoch.
        """
        backend = self.backend(device_name)
        policy, ctx = self.ranking(job_name)
        feasible, _ = policy.filter(ctx, backend)
        return policy.score(ctx, backend) if feasible else INFEASIBLE_SCORE

    def scoring_strategy_name(self, job_name: str) -> str:
        """Which ranking the meta server uses for ``job_name``."""
        return "fidelity" if self.has_fidelity_threshold(job_name) else "topology"

    def clear_job(self, job_name: str) -> None:
        """Forget a job's metadata and ranking state (its policy holds its scores)."""
        self._jobs.pop(job_name, None)
        self._rankings.pop(job_name, None)
