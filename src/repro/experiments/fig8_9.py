"""Figs. 8 & 9 — device choice for a user-drawn topology.

Section 4.4: three 10-qubit devices with identical error characteristics but
different topologies (tree-like, ring, line) are registered; the user draws a
tree-like topology on the canvas; the scheduler should select the tree device
every time.  The paper repeats the experiment 50 times and reports the same
choice in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends.backend import Backend
from repro.backends.fleet import three_device_testbed
from repro.core.visualizer import TopologyCanvas
from repro.experiments.config import ExperimentConfig, default_config
from repro.policies import PlacementContext, TopologyPlacementPolicy
from repro.utils.rng import derive_seed

#: The tree-like topology the user draws (Fig. 8): a binary tree on 10 qubits,
#: matching the first device of Fig. 9.
USER_TREE_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (1, 3),
    (1, 4),
    (2, 5),
    (2, 6),
    (3, 7),
    (3, 8),
    (4, 9),
)


@dataclass
class Fig89Result:
    """Outcome of the user-topology selection experiment."""

    selections: Dict[str, int]
    scores: Dict[str, float]
    chosen_device: str
    repetitions: int
    always_same_choice: bool
    config_description: str

    def as_dict(self) -> Dict[str, object]:
        """Serialisable form used by reports."""
        return {
            "selections": dict(self.selections),
            "scores": dict(self.scores),
            "chosen_device": self.chosen_device,
            "repetitions": self.repetitions,
            "always_same_choice": self.always_same_choice,
        }


def user_topology_canvas() -> TopologyCanvas:
    """The canvas drawing the paper's Fig. 8 user topology."""
    canvas = TopologyCanvas(10)
    canvas.load_edges(USER_TREE_EDGES)
    return canvas


def run_fig8_9(
    config: Optional[ExperimentConfig] = None,
    devices: Optional[List[Backend]] = None,
) -> Fig89Result:
    """Regenerate the Figs. 8/9 experiment.

    The scheduler's choice is repeated ``fig8_repetitions`` times; because the
    underlying subgraph-isomorphism scoring is deterministic for a fixed seed
    per repetition, the expected outcome is the tree device 50 times out of 50.
    """
    config = config or default_config()
    devices = devices if devices is not None else three_device_testbed()
    canvas = user_topology_canvas()
    ctx = PlacementContext(
        fleet=devices,
        job_name="fig8_user",
        strategy="topology",
        topology_edges=tuple(canvas.edges()),
        required_qubits=canvas.num_qubits,
    )

    selections: Dict[str, int] = {backend.name: 0 for backend in devices}
    last_scores: Dict[str, float] = {}
    for repetition in range(config.fig8_repetitions):
        decision = TopologyPlacementPolicy(seed=derive_seed(config.seed, "fig8", repetition)).decide(ctx)
        selections[decision.device] += 1
        last_scores = decision.scores
    chosen_device = max(selections, key=selections.get)
    return Fig89Result(
        selections=selections,
        scores=last_scores,
        chosen_device=chosen_device,
        repetitions=config.fig8_repetitions,
        always_same_choice=selections[chosen_device] == config.fig8_repetitions,
        config_description=config.describe(),
    )
