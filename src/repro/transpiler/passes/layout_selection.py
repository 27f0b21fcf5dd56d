"""Layout-selection passes: placing virtual qubits onto physical qubits.

Three strategies are provided, mirroring the usual progression in production
transpilers:

* :class:`TrivialLayoutPass` — identity placement (useful for tests and for
  circuits already expressed on physical qubits);
* :class:`VF2PerfectLayoutPass` — find a placement under which every
  two-qubit gate is already on a coupled pair (subgraph isomorphism), scored
  by calibration errors;
* :class:`DenseLayoutPass` — error-aware greedy placement used as a fallback
  when no perfect placement exists.

The selected layout is stored in ``context.initial_layout``; the routing pass
then materialises it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.backends.subgraph import find_exact_embeddings
from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.context import TranspileContext
from repro.transpiler.layout import Layout
from repro.transpiler.passes.base import TranspilerPass
from repro.utils.exceptions import LayoutError


class SetLayoutPass(TranspilerPass):
    """Install a caller-provided layout without any search."""

    def __init__(self, layout: Layout) -> None:
        self._layout = layout

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        for physical in self._layout.physical_qubits():
            if physical >= target.num_qubits:
                raise LayoutError(
                    f"Layout places a qubit on physical index {physical}, but the "
                    f"target only has {target.num_qubits} qubits"
                )
        context.initial_layout = self._layout.copy()
        return circuit


class TrivialLayoutPass(TranspilerPass):
    """Map virtual qubit ``i`` to physical qubit ``i``."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        if circuit.num_qubits > target.num_qubits:
            raise LayoutError(
                f"Circuit needs {circuit.num_qubits} qubits but target "
                f"'{target.name}' has only {target.num_qubits}"
            )
        context.initial_layout = Layout.trivial(circuit.num_qubits)
        return circuit


def _interaction_graph(num_qubits: int, pairs: Dict[Tuple[int, int], int]) -> nx.Graph:
    """Weighted interaction graph over ``num_qubits`` from a circuit's ``interaction_pairs()``."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    for (a, b), weight in pairs.items():
        graph.add_edge(a, b, weight=weight)
    return graph


class VF2PerfectLayoutPass(TranspilerPass):
    """Search for a placement where every interaction sits on a coupled pair.

    Enumerates VF2 subgraph monomorphisms through
    :func:`repro.backends.subgraph.find_exact_embeddings`, the matchers' own
    memoized enumeration, so repeated transpiles of one interaction pattern
    onto one coupling graph search once.  Among the embeddings found (capped
    for tractability) the first with the lowest summed two-qubit error over
    the mapped interactions is chosen.  When no embedding exists the pass
    leaves the context untouched so a fallback layout pass can run.
    """

    def __init__(self, max_embeddings: int = 16) -> None:
        self._max_embeddings = max_embeddings

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        if circuit.num_qubits > target.num_qubits:
            raise LayoutError(
                f"Circuit needs {circuit.num_qubits} qubits but target "
                f"'{target.name}' has only {target.num_qubits}"
            )
        if context.initial_layout is not None:
            return circuit
        pairs = circuit.interaction_pairs()
        interaction = _interaction_graph(circuit.num_qubits, pairs)
        active = [node for node in interaction.nodes if interaction.degree(node) > 0]
        if not active:
            context.initial_layout = Layout.trivial(circuit.num_qubits)
            return circuit
        pattern = interaction.subgraph(active)
        best_layout: Optional[Dict[int, int]] = None
        best_cost = float("inf")
        for embedding in find_exact_embeddings(pattern, target.graph(), self._max_embeddings):
            cost = _placement_error_cost(pairs, embedding.mapping, target)
            if cost < best_cost:
                best_cost = cost
                best_layout = embedding.mapping
        if best_layout is None:
            return circuit
        layout = _complete_layout(best_layout, circuit.num_qubits, target.num_qubits)
        context.initial_layout = layout
        context.properties["perfect_layout"] = True
        context.properties["layout_error_cost"] = best_cost
        return circuit


class DenseLayoutPass(TranspilerPass):
    """Error-aware greedy placement onto a connected low-error region.

    Starting from each candidate seed qubit, grow a connected region one
    qubit at a time, always absorbing the neighbour with the cheapest
    connection to the region; keep the region whose internal edges have the
    lowest mean two-qubit error.  Virtual qubits are then assigned to the
    region in descending order of interaction degree.
    """

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        if context.initial_layout is not None:
            return circuit
        if circuit.num_qubits > target.num_qubits:
            raise LayoutError(
                f"Circuit needs {circuit.num_qubits} qubits but target "
                f"'{target.name}' has only {target.num_qubits}"
            )
        region = self._best_region(target, circuit.num_qubits)
        interaction = _interaction_graph(circuit.num_qubits, circuit.interaction_pairs())
        virtual_order = sorted(
            range(circuit.num_qubits), key=lambda q: -interaction.degree(q, weight="weight")
        )
        physical_order = self._order_region(target, region)
        mapping = {virtual: physical_order[index] for index, virtual in enumerate(virtual_order)}
        context.initial_layout = Layout(mapping)
        context.properties["perfect_layout"] = False
        return circuit

    # ------------------------------------------------------------------ #
    def _best_region(self, target, size: int) -> List[int]:
        graph = target.graph()
        best_region: Optional[List[int]] = None
        best_cost = float("inf")
        for seed in range(target.num_qubits):
            region = [seed]
            frontier_cost: Dict[int, float] = {}
            while len(region) < size:
                frontier_cost.clear()
                for member in region:
                    for neighbour in graph.neighbors(member):
                        if neighbour in region:
                            continue
                        cost = target.edge_error(member, neighbour)
                        frontier_cost[neighbour] = min(cost, frontier_cost.get(neighbour, float("inf")))
                if not frontier_cost:
                    break
                best_neighbour = min(frontier_cost, key=frontier_cost.get)
                region.append(best_neighbour)
            if len(region) < size:
                continue
            cost = self._region_cost(target, region)
            if cost < best_cost:
                best_cost = cost
                best_region = region
        if best_region is None:
            raise LayoutError(
                f"Target '{target.name}' has no connected region of {size} qubits"
            )
        return best_region

    @staticmethod
    def _region_cost(target, region: Sequence[int]) -> float:
        members = set(region)
        total = 0.0
        count = 0
        for a, b in target.coupling_map:
            if a in members and b in members:
                total += target.two_qubit_error.get((a, b), 0.0)
                count += 1
        if count == 0:
            return float("inf")
        return total / count

    @staticmethod
    def _order_region(target, region: Sequence[int]) -> List[int]:
        """Order region qubits by connectivity within the region (densest first)."""
        members = set(region)
        graph = target.graph()
        return sorted(
            region,
            key=lambda q: -sum(1 for n in graph.neighbors(q) if n in members),
        )


def _placement_error_cost(pairs: Dict[Tuple[int, int], int], placement: Dict[int, int], target) -> float:
    """Summed two-qubit error over a circuit's ``interaction_pairs()`` under ``placement``."""
    cost = 0.0
    for (a, b), multiplicity in pairs.items():
        if a not in placement or b not in placement:
            continue
        cost += multiplicity * target.edge_error(placement[a], placement[b])
    return cost


def _complete_layout(partial: Dict[int, int], num_virtual: int, num_physical: int) -> Layout:
    """Extend a partial placement to cover every virtual qubit."""
    used_physical = set(partial.values())
    free_physical = [p for p in range(num_physical) if p not in used_physical]
    mapping = dict(partial)
    for virtual in range(num_virtual):
        if virtual in mapping:
            continue
        if not free_physical:
            raise LayoutError("Not enough physical qubits to complete the layout")
        mapping[virtual] = free_physical.pop(0)
    return Layout(mapping)
