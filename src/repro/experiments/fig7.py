"""Fig. 7 — achieved fidelity per workload for five selection policies.

Section 4.3: each workload circuit is submitted with a demanded fidelity of
100%.  Three schedulers pick a device — the Oracle (scores devices on the
real circuit against its noise-free output), QRIO's Clifford-canary ranking,
and a random scheduler — and the figure reports the fidelity the circuit
actually achieves on each scheduler's pick, alongside the average and median
achieved fidelity over all devices in the cluster.

Expected shape: Oracle >= Clifford >> Random / Average / Median, with Oracle
and Clifford (nearly) coinciding for the circuits that are already Clifford.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from repro.backends.backend import Backend
from repro.experiments.config import ExperimentConfig, default_config
from repro.fidelity.canary import achieved_fidelity
from repro.policies import PlacementContext, RandomPlacementPolicy, ThresholdFidelityPolicy
from repro.utils.exceptions import ReproError
from repro.utils.rng import derive_seed
from repro.workloads.evaluation_circuits import EvaluationWorkload, evaluation_workloads

#: The fidelity every Fig. 7 submission demands.
REQUESTED_FIDELITY = 1.0


@dataclass
class Fig7Row:
    """One workload group of Fig. 7 (five bars)."""

    workload: str
    label: str
    oracle: float
    clifford: float
    random: float
    average: float
    median: float
    oracle_device: str
    clifford_device: str
    random_device: str

    def as_dict(self) -> Dict[str, object]:
        """Serialisable form used by reports."""
        return {
            "workload": self.workload,
            "label": self.label,
            "oracle": self.oracle,
            "clifford": self.clifford,
            "random": self.random,
            "average": self.average,
            "median": self.median,
            "oracle_device": self.oracle_device,
            "clifford_device": self.clifford_device,
            "random_device": self.random_device,
        }


@dataclass
class Fig7Result:
    """All workload groups of Fig. 7."""

    rows: List[Fig7Row]
    config_description: str

    def series(self) -> Dict[str, Dict[str, float]]:
        """The plotted series: policy -> workload label -> fidelity."""
        series: Dict[str, Dict[str, float]] = {
            "Oracle": {},
            "Clifford": {},
            "Random": {},
            "Average": {},
            "Median": {},
        }
        for row in self.rows:
            series["Oracle"][row.label] = row.oracle
            series["Clifford"][row.label] = row.clifford
            series["Random"][row.label] = row.random
            series["Average"][row.label] = row.average
            series["Median"][row.label] = row.median
        return series


def _achieved_on_all_devices(
    workload: EvaluationWorkload,
    fleet: List[Backend],
    shots: int,
    seed,
) -> Dict[str, float]:
    """True achieved fidelity of the workload circuit on every feasible device."""
    circuit = workload.circuit()
    fidelities: Dict[str, float] = {}
    for backend in fleet:
        if backend.num_qubits < circuit.num_qubits:
            continue
        fidelities[backend.name] = achieved_fidelity(
            circuit,
            backend,
            shots=shots,
            seed=derive_seed(seed, "fig7-achieved", workload.key, backend.name),
        )
    if not fidelities:
        raise ReproError(f"No device in the fleet can host workload '{workload.key}'")
    return fidelities


def run_fig7(
    config: Optional[ExperimentConfig] = None,
    fleet: Optional[List[Backend]] = None,
    workloads: Optional[List[EvaluationWorkload]] = None,
) -> Fig7Result:
    """Regenerate Fig. 7 over the configured fleet and workloads."""
    config = config or default_config()
    fleet = fleet if fleet is not None else config.build_fleet()
    workloads = workloads if workloads is not None else evaluation_workloads()
    rows: List[Fig7Row] = []
    for workload in workloads:
        achieved = _achieved_on_all_devices(workload, fleet, config.shots, config.seed)
        # Oracle: the device with the best true fidelity.
        oracle_device = max(achieved, key=lambda name: (achieved[name], name))
        ctx = PlacementContext(
            fleet=fleet,
            circuit=workload.circuit(),
            job_name=workload.key,
            fidelity_threshold=REQUESTED_FIDELITY,
        )
        # Clifford: QRIO's canary-based choice.
        clifford_device = ThresholdFidelityPolicy(
            estimator="canary",
            canary_shots=config.shots,
            seed=derive_seed(config.seed, "fig7-clifford", workload.key),
        ).decide(ctx).device
        # Random: uniform choice over the same feasible devices.
        random_device = RandomPlacementPolicy(
            seed=derive_seed(config.seed, "fig7-random", workload.key)
        ).decide(ctx).device
        values = list(achieved.values())
        rows.append(
            Fig7Row(
                workload=workload.key,
                label=workload.label,
                oracle=achieved[oracle_device],
                clifford=achieved[clifford_device],
                random=achieved[random_device],
                average=sum(values) / len(values),
                median=float(median(values)),
                oracle_device=oracle_device,
                clifford_device=clifford_device,
                random_device=random_device,
            )
        )
    return Fig7Result(rows=rows, config_description=config.describe())
