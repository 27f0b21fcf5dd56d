"""Error-aware scoring of embeddings (Mapomatic's second step).

"each identified subgraph is scored using a cost function that incorporates
device error characteristics to estimate the amount of error the circuit
might suffer if it is mapped to that particular subgraph.  Finally, the
subgraph for which the score is the lowest is considered the most suitable
location for the target quantum circuit."  — paper, Section 3.4.2

The cost of an embedding is the expected accumulated error of running the
pattern on the chosen qubits:

* each two-qubit interaction contributes the calibrated error of the device
  edge it lands on, weighted by its multiplicity;
* interactions that land on *uncoupled* qubits (greedy fallback embeddings)
  are charged the error of the cheapest connecting path plus a SWAP overhead
  of three CX per missing hop — this is what routing would actually cost;
* every mapped qubit contributes its readout error once (the pattern is
  assumed to be measured, as QRIO jobs always are).

Lower scores are better.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.backends.subgraph import (
    DEFAULT_MAX_EMBEDDINGS,
    Embedding,
    find_exact_embeddings,
    greedy_embedding,
)
from repro.utils.cache import calibration_fingerprint, embedding_cache, pattern_hash
from repro.utils.exceptions import MatchingError
from repro.utils.rng import SeedLike


def _cache_key_for(
    pattern: nx.Graph,
    properties: BackendProperties,
    *extra: Hashable,
) -> Tuple[Hashable, ...]:
    """Embedding-cache key for one (pattern, device, calibration) query.

    ``(pattern_hash, device name, calibration fingerprint, *extra)``, where
    ``extra`` holds the matcher's search parameters.  No seed is included:
    :func:`evaluate_embeddings` stores only all-exact results, which no seed
    can change, and the budgeted matcher appends its own integer seed.
    """
    return (pattern_hash(pattern), properties.name, calibration_fingerprint(properties), *extra)


#: Number of CX gates needed to bridge one missing hop between uncoupled qubits.
SWAPS_CX_OVERHEAD = 3.0


@dataclass(frozen=True)
class ScoredEmbedding:
    """An embedding together with its error score (lower is better)."""

    embedding: Embedding
    score: float
    device: str

    @property
    def exact(self) -> bool:
        """``True`` when every pattern edge landed on a device coupling."""
        return self.embedding.exact


def embedding_cost(
    pattern: nx.Graph,
    embedding: Embedding,
    properties: BackendProperties,
    include_readout: bool = True,
    device_graph: Optional[nx.Graph] = None,
    distances: Optional[Dict[int, Dict[int, int]]] = None,
) -> float:
    """Error cost of running ``pattern`` under ``embedding`` on the device.

    Callers scoring many embeddings on one device pass the device graph (and,
    when they have them, its all-pairs hop distances) so neither is rebuilt
    per embedding; the distances are otherwise computed on first need.
    """
    if device_graph is None:
        device_graph = properties.graph()
    cost = 0.0
    for a, b, data in pattern.edges(data=True):
        multiplicity = float(data.get("weight", 1))
        physical_a = embedding.physical(a)
        physical_b = embedding.physical(b)
        if device_graph.has_edge(physical_a, physical_b):
            cost += multiplicity * properties.edge_error(physical_a, physical_b)
            continue
        if distances is None:
            distances = dict(nx.all_pairs_shortest_path_length(device_graph))
        hops = distances[physical_a].get(physical_b)
        if hops is None:
            raise MatchingError(
                f"Device '{properties.name}' cannot connect qubits {physical_a} and {physical_b}"
            )
        worst_edge = max(properties.two_qubit_error.values()) if properties.two_qubit_error else 0.0
        # One direct CX plus three CX per extra hop, charged at the device's
        # worst edge error (pessimistic, as routing paths are not yet known).
        cost += multiplicity * worst_edge * (1.0 + SWAPS_CX_OVERHEAD * (hops - 1))
    if include_readout:
        for pattern_node in pattern.nodes:
            if pattern_node in embedding.mapping:
                physical = embedding.physical(pattern_node)
                cost += properties.readout_error.get(physical, 0.0)
    return cost


def evaluate_embeddings(
    pattern: nx.Graph,
    properties: BackendProperties,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    include_readout: bool = True,
    seed: SeedLike = None,
) -> List[ScoredEmbedding]:
    """Score every candidate embedding of ``pattern`` on one device, best first.

    Candidates are the exact embeddings when any exist, otherwise one greedy
    fallback drawn with ``seed``.  All-exact results are memoized in the
    fleet-wide embedding cache, keyed by the canonical pattern hash, the
    device and its calibration fingerprint (plus the search parameters), so
    repeated scheduling requests for the same pattern skip scoring entirely
    until the device recalibrates, whatever their seed.  A greedy result
    depends on the seed and is recomputed per call; the enumeration that
    proved no exact embedding exists is memoized by
    :func:`~repro.backends.subgraph.find_exact_embeddings`.
    """
    key = _cache_key_for(pattern, properties, "scored", max_embeddings, include_readout)
    hit = embedding_cache().get(key)
    if hit is not None:
        return _copy_scored(hit)
    device_graph = properties.graph()
    distances: Optional[Dict[int, Dict[int, int]]] = None
    embeddings = find_exact_embeddings(pattern, device_graph, max_embeddings=max_embeddings)
    if not embeddings and pattern.number_of_nodes() <= properties.num_qubits:
        distances = dict(nx.all_pairs_shortest_path_length(device_graph))
        embeddings = [greedy_embedding(pattern, properties, seed, device_graph=device_graph, distances=distances)]
    scored = [
        ScoredEmbedding(
            embedding=embedding,
            score=embedding_cost(
                pattern,
                embedding,
                properties,
                include_readout=include_readout,
                device_graph=device_graph,
                distances=distances,
            ),
            device=properties.name,
        )
        for embedding in embeddings
    ]
    scored = sorted(scored, key=lambda item: item.score)
    if all(item.exact for item in scored):
        # Store (and later serve) copies: Embedding.mapping is a mutable
        # dict, and neither the cold caller nor a warm caller may be able to
        # poison the shared cache by mutating their result.
        embedding_cache().put(key, _copy_scored(scored))
    return scored


def _copy_scored(items: Sequence[ScoredEmbedding]) -> List[ScoredEmbedding]:
    """Defensive copies of scored embeddings (fresh mapping dicts)."""
    return [
        ScoredEmbedding(
            embedding=Embedding(mapping=dict(item.embedding.mapping), exact=item.embedding.exact),
            score=item.score,
            device=item.device,
        )
        for item in items
    ]


def best_embedding(
    pattern: nx.Graph,
    properties: BackendProperties,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    include_readout: bool = True,
    seed: SeedLike = None,
) -> Optional[ScoredEmbedding]:
    """The lowest-cost embedding of ``pattern`` on one device (or ``None``)."""
    scored = evaluate_embeddings(
        pattern,
        properties,
        max_embeddings=max_embeddings,
        include_readout=include_readout,
        seed=seed,
    )
    return scored[0] if scored else None
