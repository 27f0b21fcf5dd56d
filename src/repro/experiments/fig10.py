"""Fig. 10 — number of filtered devices vs. the user's two-qubit error bound.

Section 4.5: over the 100-backend fleet, the user tightens the maximum
average two-qubit error rate they can tolerate; the figure reports how many
devices survive the scheduler's filtering stage at each bound.  At 0.07 no
device survives (the job is unschedulable); at 0.68 the entire cluster
survives because every device's error rate is at most 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.cluster.job import DeviceConstraints, Job, JobSpec, ResourceRequest
from repro.cluster.node import Node
from repro.control.scheduler import DeviceCharacteristicsFilter, QubitCountFilter
from repro.experiments.config import ExperimentConfig, default_config

#: The ten thresholds swept in the paper's Fig. 10.
PAPER_THRESHOLDS: Tuple[float, ...] = (0.07, 0.147, 0.214, 0.280, 0.347, 0.414, 0.480, 0.547, 0.613, 0.680)


@dataclass
class Fig10Row:
    """One bar of Fig. 10."""

    max_two_qubit_error: float
    filtered_devices: int

    def as_dict(self) -> Dict[str, float]:
        """Serialisable form used by reports."""
        return {
            "max_two_qubit_error": self.max_two_qubit_error,
            "filtered_devices": self.filtered_devices,
        }


@dataclass
class Fig10Result:
    """The full filtering sweep."""

    rows: List[Fig10Row]
    fleet_size: int
    config_description: str

    def counts(self) -> Dict[float, int]:
        """Mapping threshold -> surviving device count (the plotted series)."""
        return {row.max_two_qubit_error: row.filtered_devices for row in self.rows}

    def is_monotonic(self) -> bool:
        """``True`` when loosening the bound never removes devices."""
        counts = [row.filtered_devices for row in self.rows]
        return all(earlier <= later for earlier, later in zip(counts, counts[1:]))


def _probe_job(max_two_qubit_error: float) -> Job:
    """A minimal job carrying only the two-qubit error bound."""
    spec = JobSpec(
        name=f"filter-probe-{max_two_qubit_error:.3f}",
        image="qrio/filter-probe",
        circuit_qasm="OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n",
        resources=ResourceRequest(qubits=1, cpu_millicores=0, memory_mb=0),
        constraints=DeviceConstraints(max_avg_two_qubit_error=max_two_qubit_error),
        strategy="fidelity",
        metadata={"fidelity_threshold": 1.0},
    )
    return Job(spec=spec)


def count_filtered_devices(fleet: Sequence[Backend], max_two_qubit_error: float) -> int:
    """Number of fleet devices passing the characteristics filter at one bound."""
    qubit_filter = QubitCountFilter()
    characteristics_filter = DeviceCharacteristicsFilter()
    job = _probe_job(max_two_qubit_error)
    survivors = 0
    for backend in fleet:
        node = Node(backend)
        feasible, _ = qubit_filter.filter(job, node)
        if not feasible:
            continue
        feasible, _ = characteristics_filter.filter(job, node)
        if feasible:
            survivors += 1
    return survivors


def run_fig10(
    config: Optional[ExperimentConfig] = None,
    fleet: Optional[List[Backend]] = None,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
) -> Fig10Result:
    """Regenerate Fig. 10 over the configured fleet."""
    config = config or default_config()
    fleet = fleet if fleet is not None else config.build_fleet()
    rows = [
        Fig10Row(max_two_qubit_error=threshold, filtered_devices=count_filtered_devices(fleet, threshold))
        for threshold in thresholds
    ]
    return Fig10Result(rows=rows, fleet_size=len(fleet), config_description=config.describe())
