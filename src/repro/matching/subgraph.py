"""Subgraph matching between circuit interaction graphs and device topologies.

This is the reproduction of Mapomatic's first step ("device subgraphs are
identified by traversing the device topology and outlining areas of the
devices that are the best fit for the qubit circuit").  Exact embeddings are
found with VF2 subgraph monomorphism; when no exact embedding exists a greedy
best-effort placement is produced instead so the scorer can still charge the
device a penalty for the missing couplings (this is what makes the
fully-connected topology request of Fig. 6 discriminate sharply between
sparse and dense devices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.utils.exceptions import MatchingError
from repro.utils.rng import SeedLike, ensure_generator

#: Default cap on the number of exact embeddings enumerated per device.
DEFAULT_MAX_EMBEDDINGS = 100


@dataclass(frozen=True)
class Embedding:
    """A placement of pattern (circuit/topology) nodes onto device qubits."""

    mapping: Dict[int, int]
    exact: bool

    def physical(self, pattern_node: int) -> int:
        """Device qubit hosting ``pattern_node``."""
        return self.mapping[pattern_node]

    def physical_qubits(self) -> List[int]:
        """All device qubits used by the embedding."""
        return sorted(self.mapping.values())


def find_exact_embeddings(
    pattern: nx.Graph,
    device_graph: nx.Graph,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
) -> List[Embedding]:
    """Enumerate subgraph-monomorphism embeddings of ``pattern`` into the device.

    A monomorphism (rather than induced-subgraph isomorphism) is the right
    notion here: the device may have extra couplings between the chosen
    qubits, which never hurts execution.

    This is the one VF2 enumeration of the package; the matchers and the
    transpiler's perfect-layout pass all call it.  Results are memoized in
    the process-wide enumeration cache under
    :func:`~repro.core.cache.enumeration_key`, which covers exactly what VF2
    reads in the order it reads it, so a hit returns the list a fresh search
    would produce, in the same order.  Infeasible searches are memoized too.
    """
    if pattern.number_of_nodes() == 0:
        return [Embedding(mapping={}, exact=True)]
    if pattern.number_of_nodes() > device_graph.number_of_nodes():
        return []
    # Lazy import: repro.core's package init pulls in the meta server, whose
    # registry policies import this module.
    from repro.core.cache import enumeration_cache, enumeration_key

    key = enumeration_key(pattern, device_graph, max_embeddings)
    mappings = enumeration_cache().get(key)
    if mappings is None:
        mappings = _enumerate(pattern, device_graph, max_embeddings)
        enumeration_cache().put(key, mappings)
    return [Embedding(mapping=dict(zip(flat[::2], flat[1::2])), exact=True) for flat in mappings]


def _enumerate(pattern: nx.Graph, device_graph: nx.Graph, max_embeddings: int) -> Tuple[Tuple[int, ...], ...]:
    """Run VF2 and return up to ``max_embeddings`` mappings.

    Each mapping is one flat ``(pattern node, device node, ...)`` tuple in
    VF2's assignment order: immutable, so the cache can share it, and about
    a third of the memory of a tuple of pairs.
    """
    if not _degree_compatible(pattern, device_graph):
        # A pattern node needs more neighbours than any device qubit offers;
        # VF2 would exhaustively prove infeasibility, so short-circuit.
        return ()
    matcher = nx.algorithms.isomorphism.GraphMatcher(device_graph, pattern)
    return tuple(
        tuple(node for device_node, pattern_node in mapping.items() for node in (pattern_node, device_node))
        for mapping in islice(matcher.subgraph_monomorphisms_iter(), max_embeddings)
    )


def _degree_compatible(pattern: nx.Graph, device_graph: nx.Graph) -> bool:
    """Cheap necessary condition for a monomorphism to exist.

    Every pattern node of degree ``d`` must map onto a device qubit of degree
    at least ``d``; comparing the sorted degree sequences rejects hopeless
    cases (e.g. a 9-leaf star onto a degree-4-capped device) in microseconds.
    """
    pattern_degrees = sorted((degree for _, degree in pattern.degree()), reverse=True)
    device_degrees = sorted((degree for _, degree in device_graph.degree()), reverse=True)
    if not pattern_degrees:
        return True
    if len(device_degrees) < len(pattern_degrees):
        return False
    return all(
        pattern_degree <= device_degrees[index]
        for index, pattern_degree in enumerate(pattern_degrees)
    )


def greedy_embedding(
    pattern: nx.Graph,
    properties: BackendProperties,
    seed: SeedLike = None,
    device_graph: Optional[nx.Graph] = None,
    distances: Optional[Dict[int, Dict[int, int]]] = None,
) -> Embedding:
    """Best-effort placement when no exact embedding exists.

    Pattern nodes are placed in descending degree order; each node goes to
    the free device qubit that is adjacent to the largest number of its
    already-placed neighbours, breaking ties by summed distance to those
    neighbours and then by local two-qubit error.  Callers that already hold
    the device graph and its all-pairs hop distances pass them in.
    """
    if pattern.number_of_nodes() > properties.num_qubits:
        raise MatchingError(
            f"Pattern needs {pattern.number_of_nodes()} qubits but device "
            f"'{properties.name}' has only {properties.num_qubits}"
        )
    rng = ensure_generator(seed)
    if device_graph is None:
        device_graph = properties.graph()
    if distances is None:
        distances = dict(nx.all_pairs_shortest_path_length(device_graph))
    order = sorted(pattern.nodes, key=lambda node: -pattern.degree(node))
    mapping: Dict[int, int] = {}
    used: set = set()

    for pattern_node in order:
        placed_neighbours = [
            mapping[neighbour] for neighbour in pattern.neighbors(pattern_node) if neighbour in mapping
        ]
        best_candidate: Optional[int] = None
        best_key: Optional[Tuple[float, float, float]] = None
        candidates = [q for q in range(properties.num_qubits) if q not in used]
        rng.shuffle(candidates)
        for candidate in candidates:
            adjacency = sum(
                1 for neighbour in placed_neighbours if device_graph.has_edge(candidate, neighbour)
            )
            distance = sum(
                distances[candidate].get(neighbour, properties.num_qubits)
                for neighbour in placed_neighbours
            )
            local_error = sum(
                properties.edge_error(candidate, other)
                for other in device_graph.neighbors(candidate)
            ) / max(1, device_graph.degree(candidate))
            key = (-adjacency, float(distance), local_error)
            if best_key is None or key < best_key:
                best_key = key
                best_candidate = candidate
        if best_candidate is None:
            raise MatchingError("Ran out of device qubits during greedy embedding")
        mapping[pattern_node] = best_candidate
        used.add(best_candidate)
    return Embedding(mapping=mapping, exact=False)


def find_embeddings(
    pattern: nx.Graph,
    properties: BackendProperties,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    seed: SeedLike = None,
) -> List[Embedding]:
    """Exact embeddings when they exist, otherwise one greedy fallback."""
    exact = find_exact_embeddings(pattern, properties.graph(), max_embeddings=max_embeddings)
    if exact:
        return exact
    if pattern.number_of_nodes() > properties.num_qubits:
        return []
    return [greedy_embedding(pattern, properties, seed=seed)]


def has_exact_embedding(pattern: nx.Graph, properties: BackendProperties) -> bool:
    """``True`` when the device can host ``pattern`` without any routing."""
    return bool(find_exact_embeddings(pattern, properties.graph(), max_embeddings=1))
