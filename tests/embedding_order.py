"""networkx's VF2 as the order oracle of the embedding search.

``repro.backends.subgraph`` enumerates subgraph monomorphisms with its own
search, which must return exactly the mappings networkx's
``GraphMatcher(device_graph, pattern).subgraph_monomorphisms_iter()``
yields, in the same order: both the matchers and the layout pass cap the
list, and the layout pass keeps the first lowest-cost embedding.  The tier-1
tests import these helpers (pytest puts this directory on ``sys.path``).

Run as a script, it sweeps a device fleet against a fixed pattern set and
exits non-zero at the first mismatch::

    PYTHONPATH=src python tests/embedding_order.py --limit 96 --cap 100
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice
from typing import Dict, Tuple

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from repro.backends import generate_fleet
from repro.backends.subgraph import _enumerate
from repro.matching import topology_as_graph

#: The fixed pattern set: the shapes first-sight jobs ask the fleet for.
PATTERNS: Dict[str, nx.Graph] = {
    "ring5": topology_as_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "k4": nx.complete_graph(4),
    "two_triangles": topology_as_graph(6, [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5)]),
    "star": topology_as_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
    "grid2x2": topology_as_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "path": nx.path_graph(5),
}


def graphmatcher_mappings(pattern: nx.Graph, device_graph: nx.Graph, cap: int) -> Tuple[Tuple[int, ...], ...]:
    """networkx's first ``cap`` monomorphisms, as flat ``(pattern, device, ...)`` tuples in its order."""
    matcher = GraphMatcher(device_graph, pattern)
    return tuple(
        tuple(node for device_node, pattern_node in mapping.items() for node in (pattern_node, device_node))
        for mapping in islice(matcher.subgraph_monomorphisms_iter(), cap)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=96, help="fleet size (generate_fleet(seed=2024))")
    parser.add_argument("--cap", type=int, default=100, help="embeddings enumerated per search")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    searches = 0
    for device in generate_fleet(seed=2024, limit=args.limit):
        graph = device.properties.graph()
        for name, pattern in PATTERNS.items():
            expected = graphmatcher_mappings(pattern, graph, args.cap)
            if _enumerate(pattern, graph, args.cap) != expected:
                print(f"MISMATCH: pattern {name} on {device.name} at cap {args.cap}", file=sys.stderr)
                return 1
            searches += 1
    print(f"{searches} searches equal networkx's, in order ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
