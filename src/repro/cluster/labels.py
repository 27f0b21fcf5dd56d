"""Node labels: the key/value metadata QRIO attaches to every cluster node.

Section 3.1: "we label each node in the cluster with its properties which
helps Kubernetes in the scheduling process of a job.  Concretely, we specify
the following parameters: Number of qubits, Average two-qubit gate error,
Average T1 and T2 times for the entire device, Average readout error rate,
CPU and Memory capacity of the node."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.backends.backend import Backend
from repro.utils.validation import require_finite_float, require_non_negative_int

#: Canonical label keys used across the scheduler, meta server and dashboard.
LABEL_QUBITS = "qrio.io/qubits"
LABEL_AVG_TWO_QUBIT_ERROR = "qrio.io/avg-two-qubit-error"
LABEL_AVG_READOUT_ERROR = "qrio.io/avg-readout-error"
LABEL_AVG_T1 = "qrio.io/avg-t1"
LABEL_AVG_T2 = "qrio.io/avg-t2"
LABEL_CPU_MILLICORES = "qrio.io/cpu-millicores"
LABEL_MEMORY_MB = "qrio.io/memory-mb"
LABEL_SIMULATOR_KIND = "qrio.io/simulator-kind"


@dataclass
class NodeLabels:
    """Structured view over a node's label dictionary."""

    qubits: int
    avg_two_qubit_error: float
    avg_readout_error: float
    avg_t1: float
    avg_t2: float
    cpu_millicores: int
    memory_mb: int
    simulator_kind: str = "noisy-simulator"
    extra: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_negative_int(self.qubits, "qubits")
        require_finite_float(self.avg_two_qubit_error, "avg_two_qubit_error")
        require_finite_float(self.avg_readout_error, "avg_readout_error")
        require_non_negative_int(self.cpu_millicores, "cpu_millicores")
        require_non_negative_int(self.memory_mb, "memory_mb")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_backend(
        cls,
        backend: Backend,
        cpu_millicores: int = 4000,
        memory_mb: int = 8192,
        simulator_kind: str = "noisy-simulator",
    ) -> "NodeLabels":
        """Derive labels from a backend's calibration data."""
        properties = backend.properties
        return cls(
            qubits=properties.num_qubits,
            avg_two_qubit_error=properties.average_two_qubit_error(),
            avg_readout_error=properties.average_readout_error(),
            avg_t1=properties.average_t1(),
            avg_t2=properties.average_t2(),
            cpu_millicores=cpu_millicores,
            memory_mb=memory_mb,
            simulator_kind=simulator_kind,
        )

    def as_dict(self) -> Dict[str, str]:
        """Flatten to the string key/value form Kubernetes labels use."""
        labels = {
            LABEL_QUBITS: str(self.qubits),
            LABEL_AVG_TWO_QUBIT_ERROR: f"{self.avg_two_qubit_error:.6f}",
            LABEL_AVG_READOUT_ERROR: f"{self.avg_readout_error:.6f}",
            LABEL_AVG_T1: f"{self.avg_t1:.1f}",
            LABEL_AVG_T2: f"{self.avg_t2:.1f}",
            LABEL_CPU_MILLICORES: str(self.cpu_millicores),
            LABEL_MEMORY_MB: str(self.memory_mb),
            LABEL_SIMULATOR_KIND: self.simulator_kind,
        }
        labels.update(self.extra)
        return labels

    @classmethod
    def from_dict(cls, labels: Mapping[str, str]) -> "NodeLabels":
        """Parse labels back from their string form."""
        known = {
            LABEL_QUBITS,
            LABEL_AVG_TWO_QUBIT_ERROR,
            LABEL_AVG_READOUT_ERROR,
            LABEL_AVG_T1,
            LABEL_AVG_T2,
            LABEL_CPU_MILLICORES,
            LABEL_MEMORY_MB,
            LABEL_SIMULATOR_KIND,
        }
        return cls(
            qubits=int(labels[LABEL_QUBITS]),
            avg_two_qubit_error=float(labels[LABEL_AVG_TWO_QUBIT_ERROR]),
            avg_readout_error=float(labels[LABEL_AVG_READOUT_ERROR]),
            avg_t1=float(labels[LABEL_AVG_T1]),
            avg_t2=float(labels[LABEL_AVG_T2]),
            cpu_millicores=int(labels[LABEL_CPU_MILLICORES]),
            memory_mb=int(labels[LABEL_MEMORY_MB]),
            simulator_kind=labels.get(LABEL_SIMULATOR_KIND, "noisy-simulator"),
            extra={key: value for key, value in labels.items() if key not in known},
        )
