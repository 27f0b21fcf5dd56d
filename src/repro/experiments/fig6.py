"""Fig. 6 — device selection from default topologies (QRIO vs random).

Section 4.2: for each of five default topology requests, QRIO's topology
ranking plugin scores all devices in the cluster and picks the lowest-score
device; a random scheduler picks uniformly among the (here: all) filtered
devices.  The reported metric is the *average decrease in score* of QRIO's
pick relative to the random pick over 25 repetitions.  The paper's headline
shape: QRIO always wins, the gap is largest for the fully connected request
(only the handful of high-connectivity devices suit it) and smallest for the
ring request (almost every device can host a ring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backends.backend import Backend
from repro.experiments.config import ExperimentConfig, default_config
from repro.policies import PlacementContext, RandomPlacementPolicy, TopologyPlacementPolicy
from repro.utils.exceptions import ReproError
from repro.utils.rng import derive_seed
from repro.workloads.default_topologies import default_topologies


@dataclass
class Fig6Row:
    """One bar of Fig. 6."""

    topology: str
    label: str
    qrio_device: str
    qrio_score: float
    average_random_score: float
    average_decrease: float
    repetitions: int

    def as_dict(self) -> Dict[str, object]:
        """Serialisable form used by reports."""
        return {
            "topology": self.topology,
            "label": self.label,
            "qrio_device": self.qrio_device,
            "qrio_score": self.qrio_score,
            "average_random_score": self.average_random_score,
            "average_decrease": self.average_decrease,
            "repetitions": self.repetitions,
        }


@dataclass
class Fig6Result:
    """All bars of Fig. 6 plus the configuration that produced them."""

    rows: List[Fig6Row]
    config_description: str

    def decreases(self) -> Dict[str, float]:
        """Mapping topology label -> average decrease (the plotted series)."""
        return {row.label: row.average_decrease for row in self.rows}


def run_fig6(
    config: Optional[ExperimentConfig] = None,
    fleet: Optional[List[Backend]] = None,
) -> Fig6Result:
    """Regenerate Fig. 6.

    For every default topology the QRIO score is deterministic (lowest score
    over the fleet); the random baseline is re-drawn ``fig6_repetitions``
    times and the decrease is averaged, exactly as in the paper.
    """
    config = config or default_config()
    fleet = fleet if fleet is not None else config.build_fleet()
    rows: List[Fig6Row] = []
    for topology in default_topologies():
        ctx = PlacementContext(
            fleet=fleet,
            job_name=topology.key,
            strategy="topology",
            topology_edges=topology.edges,
            required_qubits=topology.num_qubits,
        )
        decision = TopologyPlacementPolicy(seed=derive_seed(config.seed, "fig6", topology.key)).decide(ctx)
        if decision.device is None:
            raise ReproError(f"No device in the fleet can host the '{topology.key}' request")
        # The random baseline draws among the same feasible devices.
        random_policy = RandomPlacementPolicy(seed=derive_seed(config.seed, "fig6-random", topology.key))
        random_scores = [
            random_policy.select(ctx, decision.ranked).score for _ in range(config.fig6_repetitions)
        ]
        average_random = sum(random_scores) / len(random_scores)
        rows.append(
            Fig6Row(
                topology=topology.key,
                label=topology.label,
                qrio_device=decision.device,
                qrio_score=decision.score,
                average_random_score=average_random,
                average_decrease=average_random - decision.score,
                repetitions=config.fig6_repetitions,
            )
        )
    return Fig6Result(rows=rows, config_description=config.describe())
