"""The default topology requests of the Fig. 6 experiment.

Section 4.2 evaluates the topology-ranking scheduler on five default
topologies: a 4-qubit grid, a 6-qubit line, a 7-qubit ring, a 6-qubit heavy
square and a 6-qubit fully connected request.  Each request is represented
the same way the visualizer represents a drawn topology: an edge list plus
the topology circuit derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.backends.topologies import (
    fully_connected_topology,
    grid_topology,
    heavy_square_topology,
    line_topology,
    ring_topology,
)
from repro.circuits.circuit import QuantumCircuit
from repro.control.visualizer import TopologyCanvas


@dataclass(frozen=True)
class DefaultTopology:
    """One default topology request."""

    key: str
    label: str
    num_qubits: int
    edges: Tuple[Tuple[int, int], ...]

    def canvas(self) -> TopologyCanvas:
        """The request as a pre-loaded visualizer canvas."""
        canvas = TopologyCanvas(self.num_qubits)
        canvas.load_edges(self.edges)
        return canvas

    def topology_circuit(self) -> QuantumCircuit:
        """The request as the topology circuit QRIO scores devices against."""
        return self.canvas().to_topology_circuit(name=f"default_{self.key}")


def default_topologies() -> List[DefaultTopology]:
    """The five default topology requests of Fig. 6, in the paper's order."""
    return [
        DefaultTopology(
            key="grid",
            label="Grid",
            num_qubits=4,
            edges=tuple(grid_topology(2, 2)),
        ),
        DefaultTopology(
            key="heavy_square",
            label="Heavy Square",
            num_qubits=6,
            edges=tuple(heavy_square_topology(6)),
        ),
        DefaultTopology(
            key="fully_connected",
            label="Fully Connected",
            num_qubits=6,
            edges=tuple(fully_connected_topology(6)),
        ),
        DefaultTopology(
            key="line",
            label="Line",
            num_qubits=6,
            edges=tuple(line_topology(6)),
        ),
        DefaultTopology(
            key="ring",
            label="Ring",
            num_qubits=7,
            edges=tuple(ring_topology(7)),
        ),
    ]


def default_topology(key: str) -> DefaultTopology:
    """Look up one default topology by key (grid, heavy_square, ...)."""
    for topology in default_topologies():
        if topology.key == key:
            return topology
    raise KeyError(f"Unknown default topology '{key}'")
