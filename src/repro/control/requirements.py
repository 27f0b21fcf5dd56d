"""User-facing requirement model: what the visualizer's 3-step form collects.

Step 1 collects job identity and classical/quantum resource needs, step 2
collects optional device-characteristic bounds, and step 3 selects either a
fidelity requirement or a topology requirement (Section 3.2, Fig. 4).  The
model validates the combination rules (exactly one of fidelity/topology) and
converts itself into the cluster-level :class:`~repro.cluster.JobSpec` plus
the meta-server payload of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.job import DeviceConstraints, JobSpec, ResourceRequest
from repro.utils.exceptions import RequirementsError
from repro.utils.validation import require_name, require_positive_int, require_probability


@dataclass
class UserRequirements:
    """Everything a user specifies when submitting a job through QRIO.

    Attributes
    ----------
    job_name / image_name:
        Job identity and the docker image name the master server will build.
    num_qubits:
        Number of qubits the job needs (filtering removes smaller devices).
    cpu_millicores / memory_mb:
        Classical resource requests for the job container.
    max_avg_two_qubit_error / max_avg_readout_error / min_avg_t1 / min_avg_t2:
        Optional bounds on device characteristics (step 2 of the form).
    fidelity_threshold:
        Desired execution fidelity in [0, 1]; mutually exclusive with
        ``topology_edges``.
    topology_edges:
        Undirected qubit-interaction edges drawn on the topology canvas;
        mutually exclusive with ``fidelity_threshold``.
    shots:
        Number of shots the job should execute for.
    """

    job_name: str
    image_name: str
    num_qubits: int
    cpu_millicores: int = 500
    memory_mb: int = 512
    max_avg_two_qubit_error: Optional[float] = None
    max_avg_readout_error: Optional[float] = None
    min_avg_t1: Optional[float] = None
    min_avg_t2: Optional[float] = None
    fidelity_threshold: Optional[float] = None
    topology_edges: Optional[List[Tuple[int, int]]] = None
    shots: int = 1024

    def __post_init__(self) -> None:
        require_name(self.job_name, "job_name")
        require_name(self.image_name, "image_name")
        require_positive_int(self.num_qubits, "num_qubits")
        if self.fidelity_threshold is None and self.topology_edges is None:
            raise RequirementsError(
                "Specify either a fidelity requirement or a topology requirement"
            )
        if self.fidelity_threshold is not None and self.topology_edges is not None:
            raise RequirementsError(
                "Fidelity and topology requirements are mutually exclusive; pick one"
            )
        if self.fidelity_threshold is not None:
            require_probability(self.fidelity_threshold, "fidelity_threshold")
        if self.topology_edges is not None:
            self.topology_edges = [
                (int(a), int(b)) for a, b in self.topology_edges
            ]
            for a, b in self.topology_edges:
                if a == b:
                    raise RequirementsError("Topology edges must connect distinct qubits")
                if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                    raise RequirementsError(
                        f"Topology edge ({a}, {b}) is out of range for {self.num_qubits} qubits"
                    )
        if self.max_avg_two_qubit_error is not None:
            require_probability(self.max_avg_two_qubit_error, "max_avg_two_qubit_error")
        if self.max_avg_readout_error is not None:
            require_probability(self.max_avg_readout_error, "max_avg_readout_error")

    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> str:
        """Which ranking strategy the requirements imply."""
        return "fidelity" if self.fidelity_threshold is not None else "topology"

    def device_constraints(self) -> DeviceConstraints:
        """The device-characteristic bounds as a cluster-level object."""
        return DeviceConstraints(
            max_avg_two_qubit_error=self.max_avg_two_qubit_error,
            max_avg_readout_error=self.max_avg_readout_error,
            min_avg_t1=self.min_avg_t1,
            min_avg_t2=self.min_avg_t2,
        )

    def resource_request(self) -> ResourceRequest:
        """The classical/quantum resource request of the job."""
        return ResourceRequest(
            qubits=self.num_qubits,
            cpu_millicores=self.cpu_millicores,
            memory_mb=self.memory_mb,
        )

    def to_job_spec(self, circuit_qasm: str, image_reference: str) -> JobSpec:
        """Build the cluster job spec once the container image is known."""
        metadata: Dict[str, object] = {"strategy": self.strategy}
        if self.fidelity_threshold is not None:
            metadata["fidelity_threshold"] = self.fidelity_threshold
        if self.topology_edges is not None:
            metadata["topology_edges"] = list(self.topology_edges)
        return JobSpec(
            name=self.job_name,
            image=image_reference,
            circuit_qasm=circuit_qasm,
            resources=self.resource_request(),
            constraints=self.device_constraints(),
            strategy=self.strategy,
            shots=self.shots,
            metadata=metadata,
        )
