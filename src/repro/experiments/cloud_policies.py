"""Extension experiment — multi-job allocation policies on a shared cloud.

The paper's evaluation schedules one job at a time; its future-work section
asks for multi-job scheduling.  This experiment runs the same Poisson arrival
trace through five registry placement policies (:data:`CLOUD_POLICY_SPECS`)
on a regional fleet of simulated devices and reports, per policy, the mean/p95 wait, the
mean estimated fidelity of the chosen devices, fairness across users and the
makespan — the quantities a cloud operator would use to pick a policy.

The expected shape: the random and round-robin baselines sit at mediocre
fidelity, the pure fidelity policy maximises fidelity but piles every job on
the best device (long waits), the least-loaded policy minimises waits but
ignores fidelity, and the queue-aware fidelity policy recovers most of the
fidelity at a fraction of the queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backends.backend import Backend
from repro.backends.fleet import generate_device
from repro.scenarios.arrivals import ArrivalSpec, JobRequest, generate_trace
from repro.scenarios.metrics import render_metric_table
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulationResult, compare_policies
from repro.experiments.config import ExperimentConfig, default_config
from repro.policies.registry import resolve_policy
from repro.utils.rng import derive_seed
from repro.workloads.suites import nisq_mix_suite

#: The compared roster, as registry specs: the paper's random baseline, two
#: load spreaders, pure fidelity routing and the queue-aware trade-off of
#: Ravi et al. (QCE'21).
CLOUD_POLICY_SPECS = (
    "random",
    "round-robin",
    "least-loaded",
    "fidelity",
    "fidelity:queue_weight=0.3",
)

@dataclass
class CloudPolicyRow:
    """One policy's row in the comparison table."""

    policy: str
    mean_wait_s: float
    p95_wait_s: float
    mean_fidelity: float
    fairness: float
    makespan_s: float
    busiest_device_share: float

    def as_dict(self) -> Dict[str, object]:
        """Serialisable form used by reports."""
        return {
            "policy": self.policy,
            "mean_wait_s": self.mean_wait_s,
            "p95_wait_s": self.p95_wait_s,
            "mean_fidelity": self.mean_fidelity,
            "fairness": self.fairness,
            "makespan_s": self.makespan_s,
            "busiest_device_share": self.busiest_device_share,
        }


@dataclass
class CloudPolicyComparisonResult:
    """All policy rows plus the trace and fleet description."""

    rows: List[CloudPolicyRow]
    num_jobs: int
    num_devices: int
    config_description: str

    def row(self, policy_prefix: str) -> CloudPolicyRow:
        """The first row whose policy name starts with ``policy_prefix``."""
        for row in self.rows:
            if row.policy.startswith(policy_prefix):
                return row
        raise KeyError(f"No policy row starts with '{policy_prefix}'")

    def by_policy(self) -> Dict[str, CloudPolicyRow]:
        """Rows keyed by full policy name."""
        return {row.policy: row for row in self.rows}


def cloud_testbed_fleet(num_devices: int = 8, seed: Optional[int] = None) -> List[Backend]:
    """A regional cloud: moderate-size devices spanning quality tiers.

    The full Table 2 fleet contains 100-qubit devices that make analytic
    scoring needlessly slow for a multi-job trace; a regional testbed of
    15-27 qubit devices with spread-out connectivity and error levels keeps
    the experiment minutes-fast while preserving the heterogeneity that makes
    policy choice matter.
    """
    qubit_counts = (15, 20, 27)
    edge_probabilities = (0.15, 0.45, 0.78)
    fleet: List[Backend] = []
    index = 0
    while len(fleet) < num_devices:
        qubits = qubit_counts[index % len(qubit_counts)]
        edges = edge_probabilities[(index // len(qubit_counts)) % len(edge_probabilities)]
        fleet.append(
            generate_device(
                qubits,
                edges,
                seed=derive_seed(seed, "cloud-fleet", index),
                name=f"cloud_q{qubits}_{index:02d}",
            )
        )
        index += 1
    return fleet


def _busiest_share(result: CloudSimulationResult) -> float:
    counts = result.jobs_per_device()
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return max(counts.values()) / total


def run_cloud_policy_comparison(
    config: Optional[ExperimentConfig] = None,
    fleet: Optional[Sequence[Backend]] = None,
    trace: Optional[Sequence[JobRequest]] = None,
    num_jobs: int = 60,
    num_devices: int = 8,
    rate_per_hour: float = 360.0,
) -> CloudPolicyComparisonResult:
    """Run the policy roster over one shared trace and summarise each policy."""
    config = config or default_config()
    fleet = list(fleet) if fleet is not None else cloud_testbed_fleet(num_devices, seed=config.seed)
    if trace is None:
        spec = ArrivalSpec(
            rate_per_hour=rate_per_hour,
            num_jobs=num_jobs,
            num_users=8,
            shots=config.shots,
            suite=nisq_mix_suite(),
        )
        trace = generate_trace(spec, seed=derive_seed(config.seed, "cloud-trace"))
    simulation_config = CloudSimulationConfig(fidelity_report="esp", seed=config.seed)
    policies = [resolve_policy(spec, seed=config.seed) for spec in CLOUD_POLICY_SPECS]
    results = compare_policies(fleet, trace, policies, simulation_config)
    rows = []
    for name, result in results.items():
        summary = result.summary()
        rows.append(
            CloudPolicyRow(
                policy=name,
                mean_wait_s=float(summary["mean_wait_s"]),
                p95_wait_s=float(summary["p95_wait_s"]),
                mean_fidelity=float(summary["mean_fidelity"]),
                fairness=float(summary["fairness"]),
                makespan_s=float(summary["makespan_s"]),
                busiest_device_share=_busiest_share(result),
            )
        )
    return CloudPolicyComparisonResult(
        rows=rows,
        num_jobs=len(list(trace)),
        num_devices=len(fleet),
        config_description=config.describe(),
    )


def render_cloud_policy_comparison(result: CloudPolicyComparisonResult) -> str:
    """Text table of the policy comparison."""
    columns = [
        "policy",
        "mean_wait_s",
        "p95_wait_s",
        "mean_fidelity",
        "fairness",
        "busiest_device_share",
        "makespan_s",
    ]
    title = (
        f"Cloud policy comparison — {result.num_jobs} jobs on {result.num_devices} devices "
        f"({result.config_description})"
    )
    return render_metric_table([row.as_dict() for row in result.rows], columns, title)
