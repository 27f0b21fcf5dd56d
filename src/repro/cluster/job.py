"""Quantum job specifications and lifecycle tracking.

The QRIO master server turns a user's submission into "a Yaml file
representing the Job requirements and image name for the docker container of
the job" (Section 3.3).  :class:`JobSpec` is the structured form of that YAML
(resource requests, desired device characteristics, the container image and
the circuit payload); :class:`Job` adds the runtime state the cluster tracks
(phase, bound node, logs, execution result).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import ClusterError
from repro.utils.validation import require_name, require_non_negative_int, require_positive_int

_JOB_SEQUENCE = itertools.count(1)


class JobPhase(str, Enum):
    """Kubernetes-style job phases."""

    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"
    UNSCHEDULABLE = "Unschedulable"


@dataclass
class ResourceRequest:
    """Classical and quantum resources a job asks for.

    Mirrors the first form page of the visualizer: number of qubits, CPU
    requirement and memory requirement (Section 3.2, Fig. 4a).
    """

    qubits: int = 1
    cpu_millicores: int = 500
    memory_mb: int = 512

    def __post_init__(self) -> None:
        require_positive_int(self.qubits, "qubits")
        require_non_negative_int(self.cpu_millicores, "cpu_millicores")
        require_non_negative_int(self.memory_mb, "memory_mb")


@dataclass
class DeviceConstraints:
    """Optional bounds on device characteristics (Fig. 4b of the paper).

    ``None`` means the user does not constrain that characteristic.  Bounds
    are interpreted as: error rates are maxima, coherence times are minima.
    """

    max_avg_two_qubit_error: Optional[float] = None
    max_avg_readout_error: Optional[float] = None
    min_avg_t1: Optional[float] = None
    min_avg_t2: Optional[float] = None

    def is_unconstrained(self) -> bool:
        """``True`` when no device characteristic is bounded."""
        return all(
            value is None
            for value in (
                self.max_avg_two_qubit_error,
                self.max_avg_readout_error,
                self.min_avg_t1,
                self.min_avg_t2,
            )
        )

    def as_dict(self) -> Dict[str, Optional[float]]:
        """Serialise for job YAML / logs."""
        return {
            "max_avg_two_qubit_error": self.max_avg_two_qubit_error,
            "max_avg_readout_error": self.max_avg_readout_error,
            "min_avg_t1": self.min_avg_t1,
            "min_avg_t2": self.min_avg_t2,
        }


@dataclass
class JobSpec:
    """Everything the scheduler needs to know about a submitted job."""

    name: str
    image: str
    circuit_qasm: str
    resources: ResourceRequest = field(default_factory=ResourceRequest)
    constraints: DeviceConstraints = field(default_factory=DeviceConstraints)
    #: ``"fidelity"`` or ``"topology"`` — which ranking strategy the meta
    #: server should apply (Table 1 of the paper).
    strategy: str = "fidelity"
    shots: int = 1024
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_name(self.name, "name")
        require_name(self.image, "image")
        if self.strategy not in ("fidelity", "topology"):
            raise ClusterError("strategy must be 'fidelity' or 'topology'")
        require_positive_int(self.shots, "shots")
        if not self.circuit_qasm.strip():
            raise ClusterError("circuit_qasm must not be empty")

    def to_manifest(self) -> Dict[str, object]:
        """Render the Kubernetes-style job manifest (the paper's job YAML)."""
        return {
            "apiVersion": "batch/v1",
            "kind": "Job",
            "metadata": {"name": self.name, "labels": {"qrio.io/strategy": self.strategy}},
            "spec": {
                "template": {
                    "spec": {
                        "containers": [
                            {
                                "name": self.name,
                                "image": self.image,
                                "resources": {
                                    "requests": {
                                        "cpu": f"{self.resources.cpu_millicores}m",
                                        "memory": f"{self.resources.memory_mb}Mi",
                                        "qrio.io/qubits": str(self.resources.qubits),
                                    }
                                },
                            }
                        ],
                        "restartPolicy": "Never",
                    }
                },
                "qrioDeviceConstraints": self.constraints.as_dict(),
                "qrioShots": self.shots,
            },
        }


@dataclass
class Job:
    """Runtime state of a submitted job."""

    spec: JobSpec
    phase: JobPhase = JobPhase.PENDING
    node_name: Optional[str] = None
    score: Optional[float] = None
    result: Optional[SimulationResult] = None
    logs: List[str] = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_JOB_SEQUENCE))
    transpiled: Optional[QuantumCircuit] = None
    #: Log line of a plan compiled for this job, emitted once it runs.
    transpile_summary: Optional[str] = None
    failure_reason: Optional[str] = None

    @property
    def name(self) -> str:
        """Job name (from its spec)."""
        return self.spec.name

    def log(self, message: str) -> None:
        """Append a line to the job's execution log."""
        self.logs.append(message)

    def mark_scheduled(self, node_name: str, score: Optional[float] = None) -> None:
        """Record that the scheduler bound the job to ``node_name``."""
        if self.phase not in (JobPhase.PENDING, JobPhase.UNSCHEDULABLE):
            raise ClusterError(f"Job '{self.name}' cannot be scheduled from phase {self.phase.value}")
        self.phase = JobPhase.SCHEDULED
        self.node_name = node_name
        self.score = score
        self.log(f"Scheduled on node '{node_name}'" + (f" with score {score:.4f}" if score is not None else ""))

    def mark_running(self) -> None:
        """Record that the container started executing."""
        if self.phase != JobPhase.SCHEDULED:
            raise ClusterError(f"Job '{self.name}' cannot run from phase {self.phase.value}")
        self.phase = JobPhase.RUNNING
        self.log("Container started")

    def mark_succeeded(self, result: SimulationResult) -> None:
        """Record successful completion and store the execution result."""
        if self.phase != JobPhase.RUNNING:
            raise ClusterError(f"Job '{self.name}' cannot succeed from phase {self.phase.value}")
        self.phase = JobPhase.SUCCEEDED
        self.result = result
        self.log(f"Execution finished: {result.shots} shots, {len(result.counts)} distinct outcomes")

    def mark_failed(self, reason: str) -> None:
        """Record job failure with a reason."""
        self.phase = JobPhase.FAILED
        self.failure_reason = reason
        self.log(f"Job failed: {reason}")

    def mark_unschedulable(self, reason: str) -> None:
        """Record that filtering left no feasible node for this job."""
        self.phase = JobPhase.UNSCHEDULABLE
        self.failure_reason = reason
        self.log(f"Job unschedulable: {reason}")

    def is_finished(self) -> bool:
        """``True`` once the job reached a terminal phase."""
        return self.phase in (JobPhase.SUCCEEDED, JobPhase.FAILED, JobPhase.UNSCHEDULABLE)

    def describe(self) -> Dict[str, object]:
        """Structured summary used by logs and the dashboard."""
        return {
            "name": self.name,
            "uid": self.uid,
            "phase": self.phase.value,
            "node": self.node_name,
            "score": self.score,
            "strategy": self.spec.strategy,
            "image": self.spec.image,
            "failure_reason": self.failure_reason,
        }
