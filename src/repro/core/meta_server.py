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
        #: Cache of (job, device) scores; scores are deterministic per seed so
        #: repeated scheduler queries (and experiment repetitions) reuse them.
        self._score_cache: Dict[str, Dict[str, float]] = {}

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

        Cached scores that were computed against the stale calibration data
        are dropped so subsequent scheduler queries re-score the device.
        """
        self._backends[backend.name] = backend
        self._forget_scores(backend.name)

    def remove_backend(self, name: str) -> None:
        """Forget a vendor backend (device decommissioned) and its cached scores."""
        self._backends.pop(name, None)
        self._forget_scores(name)

    def _forget_scores(self, device_name: str) -> None:
        """Drop a device's cached scores and advance every job's calibration epoch.

        The epoch is part of the policies' own fidelity/embedding cache keys,
        so the next score of ``device_name`` is estimated afresh; other
        devices keep their cached scores.
        """
        for cache in self._score_cache.values():
            cache.pop(device_name, None)
        for _, ctx in self._rankings.values():
            ctx.calibration_epoch += 1

    def backend_names(self) -> List[str]:
        """Names of all stored backends."""
        return sorted(self._backends)

    # ------------------------------------------------------------------ #
    # Job metadata (Table 1)
    # ------------------------------------------------------------------ #
    def upload_job_metadata(self, payload: MetaServerPayload) -> JobMetadata:
        """Accept the visualizer's per-job upload."""
        if payload.strategy == "fidelity":
            if payload.fidelity_threshold is None or payload.circuit_qasm is None:
                raise MetaServerError(
                    "A fidelity submission must include the fidelity number and the circuit QASM"
                )
            require_probability(payload.fidelity_threshold, "fidelity_threshold")
            metadata = JobMetadata(
                job_name=payload.job_name,
                strategy="fidelity",
                fidelity_threshold=payload.fidelity_threshold,
                circuit=parse_qasm(payload.circuit_qasm, name=f"{payload.job_name}_circuit"),
            )
        elif payload.strategy == "topology":
            if payload.topology_qasm is None:
                raise MetaServerError("A topology submission must include the topology circuit")
            metadata = JobMetadata(
                job_name=payload.job_name,
                strategy="topology",
                topology_circuit=parse_qasm(payload.topology_qasm, name=f"{payload.job_name}_topology"),
            )
            if metadata.topology_circuit.num_two_qubit_gates() == 0:
                raise MetaServerError("A topology circuit must contain at least one interaction")
        else:
            raise MetaServerError(f"Unknown strategy '{payload.strategy}'")
        self._jobs[payload.job_name] = metadata
        self._rankings.pop(payload.job_name, None)
        self._score_cache.pop(payload.job_name, None)
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
    def _ranking_for(self, job_name: str) -> Tuple[PlacementPolicy, PlacementContext]:
        """The job's registry policy and the placement context of its metadata."""
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

        This is the request the QRIO scheduler's ranking plugin issues once
        per filtered device.
        """
        cache = self._score_cache.setdefault(job_name, {})
        if device_name in cache:
            return cache[device_name]
        backend = self.backend(device_name)
        policy, ctx = self._ranking_for(job_name)
        feasible, _ = policy.filter(ctx, backend)
        value = policy.score(ctx, backend) if feasible else INFEASIBLE_SCORE
        cache[device_name] = value
        return value

    def scoring_strategy_name(self, job_name: str) -> str:
        """Which ranking the meta server uses for ``job_name``."""
        return "fidelity" if self.has_fidelity_threshold(job_name) else "topology"

    def clear_job(self, job_name: str) -> None:
        """Forget a job's metadata, ranking state and cached scores."""
        self._jobs.pop(job_name, None)
        self._rankings.pop(job_name, None)
        self._score_cache.pop(job_name, None)
