"""Subgraph matching between circuit interaction graphs and device topologies.

This is the reproduction of Mapomatic's first step ("device subgraphs are
identified by traversing the device topology and outlining areas of the
devices that are the best fit for the qubit circuit").  Exact embeddings are
found with a VF2 subgraph-monomorphism search of our own, which returns
networkx's mappings in networkx's order; when no exact embedding exists a greedy
best-effort placement is produced instead so the scorer can still charge the
device a penalty for the missing couplings (this is what makes the
fully-connected topology request of Fig. 6 discriminate sharply between
sparse and dense devices).

The enumeration lives with the device models, below the transpiler, so the
transpiler's VF2 layout pass and the matchers of :mod:`repro.matching` share
it (and its process-wide cache) without the transpiler importing a
placement layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.utils.cache import enumeration_cache, enumeration_key
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

    This is the one embedding search of the package; the matchers and the
    transpiler's perfect-layout pass all call it.  It returns the mappings
    networkx's VF2 matcher would, in the same order (:func:`_monomorphisms`),
    and both callers depend on that order: they cap the list, and the layout
    pass keeps the first lowest-cost embedding.  Results are memoized in the
    process-wide enumeration cache under
    :func:`~repro.utils.cache.enumeration_key`, which covers exactly what the
    search reads in the order it reads it, so a hit returns the list a fresh
    search would produce, in the same order.  Infeasible searches are
    memoized too.
    """
    if pattern.number_of_nodes() == 0:
        return [Embedding(mapping={}, exact=True)]
    if pattern.number_of_nodes() > device_graph.number_of_nodes():
        return []
    key = enumeration_key(pattern, device_graph, max_embeddings)
    mappings = enumeration_cache().get(key)
    if mappings is None:
        mappings = _enumerate(pattern, device_graph, max_embeddings)
        enumeration_cache().put(key, mappings)
    return [Embedding(mapping=dict(zip(flat[::2], flat[1::2])), exact=True) for flat in mappings]


def _enumerate(pattern: nx.Graph, device_graph: nx.Graph, max_embeddings: int) -> Tuple[Tuple[int, ...], ...]:
    """Up to ``max_embeddings`` monomorphisms of ``pattern`` into the device, in VF2's order.

    Each mapping is one flat ``(pattern node, device node, ...)`` tuple in
    assignment order: immutable, so the cache can share it, and about a
    third of the memory of a tuple of pairs.  The list, and so every capped
    prefix of it, is the one networkx's
    ``GraphMatcher(device_graph, pattern).subgraph_monomorphisms_iter()``
    yields, in the same order (:func:`_monomorphisms`).
    """
    if any(graph.is_directed() or graph.is_multigraph() for graph in (pattern, device_graph)):
        raise MatchingError("Embedding search needs simple undirected graphs")
    if not _degree_compatible(pattern, device_graph):
        # A pattern node needs more neighbours than any device qubit offers.
        return ()
    return tuple(islice(_monomorphisms(pattern, device_graph), max_embeddings))


def _neighbour_sets(graph: nx.Graph) -> Dict[int, set]:
    """Each node's neighbours, without the node itself."""
    return {node: set(neighbours).difference((node,)) for node, neighbours in graph.adjacency()}


def _triangles(neighbours: Dict[int, set]) -> Dict[int, int]:
    """The number of triangles through each node."""
    return {
        node: sum(len(around & neighbours[other]) for other in around) // 2
        for node, around in neighbours.items()
    }


def _monomorphisms(pattern: nx.Graph, device_graph: nx.Graph) -> Iterator[Tuple[int, ...]]:
    """networkx VF2's subgraph monomorphisms of ``pattern`` into ``device_graph``, in its order.

    A port of networkx 3.x ``GraphMatcher(device_graph, pattern)
    .subgraph_monomorphisms_iter()`` onto adjacency lists and sets read once
    per call, which keeps every rule that decides the order:

    * the candidate rule: while both frontiers (unmapped nodes next to a
      mapped one) are non-empty, the lowest-ordered frontier pattern node
      is paired with each frontier device node in frontier order;
      otherwise the lowest-ordered unmapped pattern node is paired with
      each unmapped device node in node order;
    * the frontier order: the device frontier is networkx's ``inout_1``
      dict, which records nodes in the order they join it.  When one step
      adds two or more nodes, networkx adds them in the iteration order of
      a set it rebuilds from every mapped node's neighbours, so that set is
      rebuilt here the same way;
    * the feasibility rule: a self-loop needs a self-loop, and every mapped
      pattern neighbour must land on a device neighbour.

    On top of VF2 it skips branches that hold no complete mapping, which
    networkx walks in full (it does no look-ahead in monomorphism mode):

    * a device node with a lower degree or fewer triangles than the pattern
      node cannot host it;
    * after each assignment but the last, the branch ends if an unmapped
      neighbour of the pattern node just placed, with two or more mapped
      neighbours, has no free host left: a device node next to every image
      of its mapped neighbours, with at least its degree and triangle
      count.

    The candidates VF2 tries at a node of its search tree depend only on
    the path to that node, so cutting a subtree that holds no mapping
    leaves the sequence of mappings, and every prefix a cap takes of it,
    unchanged.  networkx stays the test oracle of that sequence.
    """
    pattern_order = list(pattern)
    pattern_sets = _neighbour_sets(pattern)
    pattern_degree = {node: len(around) for node, around in pattern_sets.items()}
    pattern_tri = _triangles(pattern_sets)
    pattern_loops = {node for node, around in pattern.adjacency() if node in around}
    device_order = list(device_graph)
    device_lists = {node: list(around) for node, around in device_graph.adjacency()}
    device_sets = _neighbour_sets(device_graph)
    device_degree = {node: len(around) for node, around in device_sets.items()}
    if any(pattern_tri.values()):
        device_tri = _triangles(device_sets)
    else:
        device_tri = dict.fromkeys(device_order, 0)
    device_loops = {node for node, around in device_graph.adjacency() if node in around}
    size = len(pattern_order)

    core1: Dict[int, int] = {}  # device -> pattern, in assignment order
    core2: Dict[int, int] = {}  # pattern -> device
    inout1: Dict[int, None] = {}  # networkx's inout_1: mapped and frontier device nodes, in joining order
    mapped_neighbours = dict.fromkeys(pattern_order, 0)

    def common_neighbours(node: int) -> Optional[set]:
        """Device nodes next to the image of every mapped neighbour of ``node`` (``None``: none is mapped)."""
        images = [core2[other] for other in pattern_sets[node] if other in core2]
        if not images:
            return None
        return device_sets[images[0]].intersection(*[device_sets[image] for image in images[1:]])

    def hosted(node: int) -> bool:
        """Whether a free device node can still host ``node``, which has a mapped neighbour."""
        degree, tri = pattern_degree[node], pattern_tri[node]
        return any(
            host not in core1 and device_degree[host] >= degree and device_tri[host] >= tri
            for host in common_neighbours(node)
        )

    def join_frontier(node: int) -> List[int]:
        """Grow ``inout1`` as networkx does when ``node`` is mapped; return the nodes that joined."""
        joined = [] if node in inout1 else [node]
        fresh = [other for other in device_lists[node] if other not in inout1 and other != node]
        if len(fresh) > 1:
            # networkx's insertion order: the set it rebuilds, filled in the same sequence.
            rebuilt = {other for mapped in core1 for other in device_lists[mapped] if other not in core1}
            fresh = [other for other in rebuilt if other not in inout1]
        joined.extend(fresh)
        inout1.update(dict.fromkeys(joined))
        return joined

    def extend() -> Iterator[Tuple[int, ...]]:
        candidates = [node for node in inout1 if node not in core1]
        target = None
        if candidates:
            target = next((node for node in pattern_order if mapped_neighbours[node] and node not in core2), None)
        if target is None:
            target = next(node for node in pattern_order if node not in core2)
            candidates = [node for node in device_order if node not in core1]
        target_neighbours = pattern_sets[target]
        allowed = common_neighbours(target)
        degree, tri = pattern_degree[target], pattern_tri[target]
        needs_loop = target in pattern_loops
        last = len(core2) + 1 == size
        for node in candidates:
            if (
                device_degree[node] < degree
                or device_tri[node] < tri
                or (allowed is not None and node not in allowed)
                or (needs_loop and node not in device_loops)
            ):
                continue
            core1[node] = target
            core2[target] = node
            if last:
                yield tuple(chain.from_iterable(zip(core1.values(), core1)))
            else:
                for other in target_neighbours:
                    mapped_neighbours[other] += 1
                # Forward check: a neighbour of ``target`` that now has two or
                # more mapped neighbours must keep a free host.
                pinned = [other for other in target_neighbours if mapped_neighbours[other] > 1 and other not in core2]
                if all(hosted(other) for other in pinned):
                    joined = join_frontier(node)
                    yield from extend()
                    for other in joined:
                        del inout1[other]
                for other in target_neighbours:
                    mapped_neighbours[other] -= 1
            del core1[node]
            del core2[target]

    def search() -> Iterator[Tuple[int, ...]]:
        nonlocal extend
        try:
            yield from extend()
        finally:
            # ``extend`` refers to itself, which would keep every table of
            # this search alive until the cycle collector ran.
            extend = None

    return search() if size else iter(((),))


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
