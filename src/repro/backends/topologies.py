"""Coupling-map builders for devices and for user topology requests.

The paper uses named topologies in two places: the default topology requests
of the Fig. 6 experiment (grid, line, ring, heavy square, fully connected)
and the three visually comprehensible 10-qubit devices of the Figs. 8/9
experiment (tree, ring, line).  The fleet generator additionally needs the
random coupling maps of Table 2 ("random coupling map ... we limit ourselves
to at most 4 connections" per qubit).

A coupling map is represented as a sorted list of undirected edges
``(a, b)`` with ``a < b``; helpers convert to :class:`networkx.Graph` when a
graph algorithm is needed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import networkx as nx

from repro.utils.exceptions import BackendError
from repro.utils.rng import SeedLike, ensure_generator
from repro.utils.validation import require_positive_int, require_probability

CouplingMap = List[Tuple[int, int]]

#: Degree cap applied by the random device generator (paper Section 4.1).
MAX_CONNECTIONS_PER_QUBIT = 4


def _normalise(edges: Iterable[Sequence[int]]) -> CouplingMap:
    unique: Set[Tuple[int, int]] = set()
    for edge in edges:
        a, b = int(edge[0]), int(edge[1])
        if a == b:
            raise BackendError(f"Self-loop edge ({a}, {b}) is not a valid coupling")
        unique.add((a, b) if a < b else (b, a))
    return sorted(unique)


def coupling_to_graph(num_qubits: int, coupling_map: Iterable[Sequence[int]]) -> nx.Graph:
    """Build an undirected :class:`networkx.Graph` from a coupling map."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(_normalise(coupling_map))
    return graph


def is_connected(num_qubits: int, coupling_map: Iterable[Sequence[int]]) -> bool:
    """``True`` when the coupling map connects every qubit (or is a single qubit)."""
    if num_qubits <= 1:
        return True
    graph = coupling_to_graph(num_qubits, coupling_map)
    return nx.is_connected(graph)


# --------------------------------------------------------------------------- #
# Named topologies
# --------------------------------------------------------------------------- #
def line_topology(num_qubits: int) -> CouplingMap:
    """A 1-D chain: qubit ``i`` couples to ``i + 1``."""
    require_positive_int(num_qubits, "num_qubits")
    return [(i, i + 1) for i in range(num_qubits - 1)]


def ring_topology(num_qubits: int) -> CouplingMap:
    """A cycle: the line topology plus an edge closing the loop."""
    require_positive_int(num_qubits, "num_qubits")
    if num_qubits < 3:
        return line_topology(num_qubits)
    return _normalise(line_topology(num_qubits) + [(num_qubits - 1, 0)])


def grid_topology(rows: int, columns: int) -> CouplingMap:
    """A ``rows x columns`` rectangular lattice."""
    require_positive_int(rows, "rows")
    require_positive_int(columns, "columns")
    edges: List[Tuple[int, int]] = []
    for row in range(rows):
        for column in range(columns):
            index = row * columns + column
            if column + 1 < columns:
                edges.append((index, index + 1))
            if row + 1 < rows:
                edges.append((index, index + columns))
    return _normalise(edges)


def fully_connected_topology(num_qubits: int) -> CouplingMap:
    """Every qubit couples to every other qubit."""
    require_positive_int(num_qubits, "num_qubits")
    return [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]


def star_topology(num_qubits: int) -> CouplingMap:
    """Qubit 0 couples to every other qubit."""
    require_positive_int(num_qubits, "num_qubits")
    return [(0, i) for i in range(1, num_qubits)]


def heavy_square_topology(num_qubits: int = 6) -> CouplingMap:
    """A "heavy square" unit: a square of corner qubits with bridge qubits.

    The 6-qubit default of the paper is interpreted as one square whose two
    horizontal edges are subdivided by a bridge qubit (IBM's heavy-square
    lattice unit cell restricted to 6 qubits); larger sizes tile additional
    squares along a row.
    """
    require_positive_int(num_qubits, "num_qubits")
    if num_qubits < 6:
        return ring_topology(num_qubits)
    # Corners 0,1,2,3 (clockwise square), bridges 4 (between 0-1) and 5
    # (between 2-3); vertical edges connect the corners directly.
    edges = [(0, 4), (4, 1), (1, 2), (2, 5), (5, 3), (3, 0)]
    next_qubit = 6
    attach = 1
    while next_qubit < num_qubits:
        edges.append((attach, next_qubit))
        attach = next_qubit
        next_qubit += 1
    return _normalise(edges)


def heavy_hex_topology(distance: int = 3) -> CouplingMap:
    """A small heavy-hex style lattice (used by extension examples/tests)."""
    require_positive_int(distance, "distance")
    rows = distance
    columns = distance
    base = grid_topology(rows, columns)
    graph = nx.Graph(base)
    edges: List[Tuple[int, int]] = []
    next_node = rows * columns
    for a, b in graph.edges():
        # Subdivide horizontal edges with a bridge qubit (heavy edges).
        if abs(a - b) == 1:
            edges.append((a, next_node))
            edges.append((next_node, b))
            next_node += 1
        else:
            edges.append((a, b))
    return _normalise(edges)


def tree_topology(num_qubits: int, branching: int = 2) -> CouplingMap:
    """A balanced tree: qubit ``i`` couples to its ``branching`` children."""
    require_positive_int(num_qubits, "num_qubits")
    require_positive_int(branching, "branching")
    edges: List[Tuple[int, int]] = []
    for child in range(1, num_qubits):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return _normalise(edges)


#: Registry used by the visualizer's "default topology" drop-down and by the
#: Fig. 6 experiment.  Values are factories taking the number of qubits.
NAMED_TOPOLOGIES = {
    "line": line_topology,
    "ring": ring_topology,
    "grid": lambda n: grid_topology(*_grid_shape(n)),
    "heavy_square": heavy_square_topology,
    "fully_connected": fully_connected_topology,
    "star": star_topology,
    "tree": tree_topology,
}


def _grid_shape(num_qubits: int) -> Tuple[int, int]:
    """Pick the most square ``rows x columns`` factorisation of ``num_qubits``."""
    best = (1, num_qubits)
    for rows in range(1, int(math.isqrt(num_qubits)) + 1):
        if num_qubits % rows == 0:
            best = (rows, num_qubits // rows)
    return best


def named_topology(name: str, num_qubits: int) -> CouplingMap:
    """Build the named topology over ``num_qubits`` qubits."""
    key = name.lower()
    if key not in NAMED_TOPOLOGIES:
        raise BackendError(
            f"Unknown topology '{name}'; available: {sorted(NAMED_TOPOLOGIES)}"
        )
    return NAMED_TOPOLOGIES[key](num_qubits)


# --------------------------------------------------------------------------- #
# Random device topologies (Table 2)
# --------------------------------------------------------------------------- #
def random_coupling_map(
    num_qubits: int,
    edge_probability: float,
    seed: SeedLike = None,
    max_degree: int = MAX_CONNECTIONS_PER_QUBIT,
) -> CouplingMap:
    """Random connected coupling map following the paper's generator.

    Candidate edges are visited in random order and accepted with probability
    ``edge_probability`` as long as both endpoints stay within ``max_degree``
    connections.  A random spanning tree is added first so the device is
    always connected (a disconnected backend cannot run multi-qubit jobs).
    """
    require_positive_int(num_qubits, "num_qubits")
    require_probability(edge_probability, "edge_probability")
    require_positive_int(max_degree, "max_degree")
    rng = ensure_generator(seed)
    degree: Dict[int, int] = {q: 0 for q in range(num_qubits)}
    edges: Set[Tuple[int, int]] = set()

    # Spanning tree: connect each new qubit to a random already-connected
    # qubit that still has spare degree.
    order = list(rng.permutation(num_qubits))
    connected = [order[0]]
    for qubit in order[1:]:
        candidates = [q for q in connected if degree[q] < max_degree]
        if not candidates:
            candidates = connected
        anchor = int(candidates[int(rng.integers(0, len(candidates)))])
        edge = (min(anchor, qubit), max(anchor, qubit))
        edges.add(edge)
        degree[anchor] += 1
        degree[qubit] += 1
        connected.append(qubit)

    # Extra edges with the requested probability, respecting the degree cap.
    pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    rng.shuffle(pairs)
    for a, b in pairs:
        if (a, b) in edges:
            continue
        if degree[a] >= max_degree or degree[b] >= max_degree:
            continue
        if rng.random() < edge_probability:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    return sorted(edges)


def average_degree(num_qubits: int, coupling_map: Iterable[Sequence[int]]) -> float:
    """Average number of couplings per qubit."""
    edges = _normalise(coupling_map)
    if num_qubits == 0:
        return 0.0
    return 2.0 * len(edges) / num_qubits


def coupling_density(num_qubits: int, coupling_map: Iterable[Sequence[int]]) -> float:
    """Fraction of all possible qubit pairs that are coupled."""
    edges = _normalise(coupling_map)
    possible = num_qubits * (num_qubits - 1) / 2
    if possible == 0:
        return 0.0
    return len(edges) / possible
