"""Subgraph-isomorphism based topology matching (Mapomatic-style)."""

from repro.backends.subgraph import (
    DEFAULT_MAX_EMBEDDINGS,
    Embedding,
    find_embeddings,
    find_exact_embeddings,
    greedy_embedding,
    has_exact_embedding,
)
from repro.matching.interaction import (
    graph_summary,
    interaction_edge_list,
    interaction_graph,
    topology_as_graph,
)
from repro.matching.mapomatic import DeviceMatch, best_overall_device, match_device, rank_devices
from repro.matching.scalable import (
    MatchBudget,
    anneal_embedding,
    best_device_scalable,
    rank_devices_scalable,
    scalable_match_device,
)
from repro.matching.scoring import ScoredEmbedding, best_embedding, embedding_cost, evaluate_embeddings

__all__ = [
    "DEFAULT_MAX_EMBEDDINGS",
    "DeviceMatch",
    "Embedding",
    "MatchBudget",
    "ScoredEmbedding",
    "anneal_embedding",
    "best_device_scalable",
    "best_embedding",
    "best_overall_device",
    "embedding_cost",
    "evaluate_embeddings",
    "find_embeddings",
    "find_exact_embeddings",
    "graph_summary",
    "greedy_embedding",
    "has_exact_embedding",
    "interaction_edge_list",
    "interaction_graph",
    "match_device",
    "rank_devices",
    "rank_devices_scalable",
    "scalable_match_device",
    "topology_as_graph",
]
