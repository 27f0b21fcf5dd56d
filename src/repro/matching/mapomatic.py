"""Cross-device layout/topology matching (the Mapomatic-equivalent front end).

QRIO's topology ranking strategy asks: *which device in the shortlisted set
most resembles the user's requested topology?*  The answer is obtained by
treating the user's topology circuit as a pattern, enumerating embeddings of
that pattern on every candidate device and returning the device whose best
embedding has the lowest error cost (Section 3.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import networkx as nx

from repro.backends.backend import Backend
from repro.backends.properties import BackendProperties
from repro.backends.subgraph import DEFAULT_MAX_EMBEDDINGS
from repro.circuits.circuit import QuantumCircuit
from repro.matching.interaction import interaction_graph
from repro.matching.scoring import ScoredEmbedding, best_embedding
from repro.utils.exceptions import MatchingError
from repro.utils.rng import SeedLike

PatternLike = Union[QuantumCircuit, nx.Graph]
TargetLike = Union[Backend, BackendProperties]


@dataclass(frozen=True)
class DeviceMatch:
    """Result of matching a pattern against one device."""

    device: str
    score: float
    exact: bool
    layout: Dict[int, int]


def _as_pattern(pattern: PatternLike) -> nx.Graph:
    if isinstance(pattern, QuantumCircuit):
        return interaction_graph(pattern)
    if isinstance(pattern, nx.Graph):
        return pattern
    raise MatchingError("pattern must be a QuantumCircuit or a networkx Graph")


def _as_properties(target: TargetLike) -> BackendProperties:
    if isinstance(target, Backend):
        return target.properties
    if isinstance(target, BackendProperties):
        return target
    raise MatchingError("target must be a Backend or BackendProperties")


def match_device(
    pattern: PatternLike,
    target: TargetLike,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    include_readout: bool = True,
    seed: SeedLike = None,
) -> Optional[DeviceMatch]:
    """Score ``pattern`` against one device; ``None`` if it cannot fit at all.

    Embedding searches are memoized per (pattern, device, calibration epoch)
    in the fleet-wide embedding cache; see
    :func:`repro.matching.scoring.evaluate_embeddings`.
    """
    graph = _as_pattern(pattern)
    properties = _as_properties(target)
    if graph.number_of_nodes() > properties.num_qubits:
        return None
    scored = best_embedding(
        graph,
        properties,
        max_embeddings=max_embeddings,
        include_readout=include_readout,
        seed=seed,
    )
    if scored is None:
        return None
    return DeviceMatch(
        device=properties.name,
        score=scored.score,
        exact=scored.exact,
        layout=dict(scored.embedding.mapping),
    )


def rank_devices(
    pattern: PatternLike,
    targets: Iterable[TargetLike],
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    include_readout: bool = True,
    seed: SeedLike = None,
) -> List[DeviceMatch]:
    """Score ``pattern`` on every device and return matches sorted best-first.

    Devices that cannot host the pattern (fewer qubits than pattern nodes)
    are omitted; exact embeddings rank ahead of penalised greedy embeddings
    with equal scores.
    """
    matches: List[DeviceMatch] = []
    for target in targets:
        match = match_device(
            pattern,
            target,
            max_embeddings=max_embeddings,
            include_readout=include_readout,
            seed=seed,
        )
        if match is not None:
            matches.append(match)
    return sorted(matches, key=lambda match: (match.score, not match.exact, match.device))


def best_overall_device(
    pattern: PatternLike,
    targets: Iterable[TargetLike],
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    seed: SeedLike = None,
) -> DeviceMatch:
    """The single best device for ``pattern`` across ``targets``."""
    ranking = rank_devices(pattern, targets, max_embeddings=max_embeddings, seed=seed)
    if not ranking:
        raise MatchingError("No device in the candidate set can host the requested topology")
    return ranking[0]
