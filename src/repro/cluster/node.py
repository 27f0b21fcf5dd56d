"""Worker nodes: a quantum device plus classical capacity and labels.

A QRIO cluster node (Section 3.1) couples a quantum backend (real or
simulated; here always simulated) with the classical resources of the machine
hosting it.  Nodes expose the vendor's ``backend.py`` contract, carry the
aggregate labels the scheduler filters on, track how much CPU/memory is
currently allocated to running jobs, and execute the circuits of jobs bound
to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.cluster.labels import NodeLabels
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import ClusterError
from repro.utils.rng import SeedLike
from repro.utils.validation import require_name, require_non_negative_int


class NodeStatus(str, Enum):
    """Lifecycle status of a cluster node."""

    READY = "Ready"
    NOT_READY = "NotReady"
    CORDONED = "Cordoned"


@dataclass
class NodeCapacity:
    """Classical capacity of a node (Kubernetes-style requests accounting)."""

    cpu_millicores: int = 4000
    memory_mb: int = 8192

    def __post_init__(self) -> None:
        require_non_negative_int(self.cpu_millicores, "cpu_millicores")
        require_non_negative_int(self.memory_mb, "memory_mb")

    def fits(self, cpu_millicores: int, memory_mb: int) -> bool:
        """``True`` when a request of the given size fits in this capacity."""
        return cpu_millicores <= self.cpu_millicores and memory_mb <= self.memory_mb


class Node:
    """A QRIO worker node: quantum backend + classical capacity + labels."""

    def __init__(
        self,
        backend: Backend,
        name: Optional[str] = None,
        capacity: Optional[NodeCapacity] = None,
        labels: Optional[NodeLabels] = None,
    ) -> None:
        self.backend = backend
        self.name = require_name(name or f"node-{backend.name}", "name")
        self.capacity = capacity or NodeCapacity()
        self.labels = labels or NodeLabels.from_backend(
            backend,
            cpu_millicores=self.capacity.cpu_millicores,
            memory_mb=self.capacity.memory_mb,
        )
        self.status = NodeStatus.READY
        self._allocated_cpu = 0
        self._allocated_memory = 0
        self._bound_jobs: List[str] = []

    # ------------------------------------------------------------------ #
    # Status management (vendor-side controls; future-work item 1)
    # ------------------------------------------------------------------ #
    def cordon(self) -> None:
        """Mark the node unschedulable without evicting running jobs."""
        self.status = NodeStatus.CORDONED

    def uncordon(self) -> None:
        """Return a cordoned node to the schedulable pool."""
        if self.status == NodeStatus.CORDONED:
            self.status = NodeStatus.READY

    def mark_not_ready(self) -> None:
        """Record that the node's kubelet/backend stopped responding."""
        self.status = NodeStatus.NOT_READY

    def mark_ready(self) -> None:
        """Record that the node recovered (self-healing restart)."""
        self.status = NodeStatus.READY

    def is_schedulable(self) -> bool:
        """``True`` when new jobs may be bound to this node."""
        return self.status == NodeStatus.READY

    # ------------------------------------------------------------------ #
    # Resource accounting
    # ------------------------------------------------------------------ #
    @property
    def available_cpu(self) -> int:
        """Unallocated CPU in millicores."""
        return self.capacity.cpu_millicores - self._allocated_cpu

    @property
    def available_memory(self) -> int:
        """Unallocated memory in MB."""
        return self.capacity.memory_mb - self._allocated_memory

    @property
    def bound_jobs(self) -> List[str]:
        """Names of jobs currently bound to this node."""
        return list(self._bound_jobs)

    def can_host(self, cpu_millicores: int, memory_mb: int) -> bool:
        """``True`` when the remaining capacity covers the request."""
        return cpu_millicores <= self.available_cpu and memory_mb <= self.available_memory

    def allocate(self, job_name: str, cpu_millicores: int, memory_mb: int) -> None:
        """Reserve resources for a bound job."""
        if not self.is_schedulable():
            raise ClusterError(f"Node '{self.name}' is not schedulable ({self.status.value})")
        if not self.can_host(cpu_millicores, memory_mb):
            raise ClusterError(
                f"Node '{self.name}' cannot host job '{job_name}': requested "
                f"{cpu_millicores}m CPU / {memory_mb}MB, available "
                f"{self.available_cpu}m / {self.available_memory}MB"
            )
        self._allocated_cpu += cpu_millicores
        self._allocated_memory += memory_mb
        self._bound_jobs.append(job_name)

    def release(self, job_name: str, cpu_millicores: int, memory_mb: int) -> None:
        """Return a finished job's resources to the pool."""
        if job_name not in self._bound_jobs:
            raise ClusterError(f"Job '{job_name}' is not bound to node '{self.name}'")
        self._bound_jobs.remove(job_name)
        self._allocated_cpu = max(0, self._allocated_cpu - cpu_millicores)
        self._allocated_memory = max(0, self._allocated_memory - memory_mb)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: SeedLike = None,
        precompiled=None,
    ) -> SimulationResult:
        """Run an already-transpiled circuit on this node's backend.

        ``precompiled`` forwards a cached
        :class:`~repro.simulators.noisy.PrecompiledExecution` to the backend
        (the execution-plan replay path).
        """
        if not circuit.has_measurements():
            raise ClusterError(
                f"Job circuit '{circuit.name}' has no measurements; nothing would be returned"
            )
        return self.backend.run(circuit, shots=shots, seed=seed, precompiled=precompiled)

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """`kubectl describe node`-style summary used by the dashboard."""
        return {
            "name": self.name,
            "status": self.status.value,
            "backend": self.backend.name,
            "labels": self.labels.as_dict(),
            "capacity": {
                "cpu_millicores": self.capacity.cpu_millicores,
                "memory_mb": self.capacity.memory_mb,
            },
            "allocated": {
                "cpu_millicores": self._allocated_cpu,
                "memory_mb": self._allocated_memory,
            },
            "bound_jobs": list(self._bound_jobs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node(name={self.name!r}, backend={self.backend.name!r}, status={self.status.value})"
