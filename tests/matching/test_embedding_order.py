"""The embedding search returns networkx's VF2 mappings in networkx's order.

``backends.subgraph._enumerate`` runs an in-repo search that prunes
branches holding no complete mapping.  Every test here compares its output,
list and order, with a fresh ``GraphMatcher`` loop (``embedding_order``).
"""

import gc
import sys

import networkx as nx
import pytest
from embedding_order import PATTERNS, graphmatcher_mappings
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import generate_fleet, named_topology_device
from repro.backends.subgraph import _enumerate
from repro.backends.topologies import heavy_hex_topology
from repro.circuits import ghz
from repro.circuits.algorithms import qaoa_maxcut
from repro.matching import topology_as_graph
from repro.service import JobRequirements, JobState, OrchestratorEngine, QRIOService
from repro.utils.cache import clear_all_caches, enumeration_cache

UNCAPPED = sys.maxsize


@st.composite
def _graphs(draw, min_nodes, max_nodes):
    """A graph with shuffled node and edge insertion order and edge orientation."""
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(range(size))))
    graph.add_edges_from((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))
    return graph


def _assert_same_order(pattern, device_graph, cap):
    assert _enumerate(pattern, device_graph, cap) == graphmatcher_mappings(pattern, device_graph, cap)


def _assert_same_prefixes(pattern, device_graph, caps):
    """One oracle run at the largest cap; a smaller cap must return its prefix."""
    expected = graphmatcher_mappings(pattern, device_graph, max(caps))
    for cap in caps:
        assert _enumerate(pattern, device_graph, cap) == expected[:cap]


class TestHypothesisGraphs:
    @settings(max_examples=150, deadline=None)
    @given(pattern=_graphs(0, 8), device_graph=_graphs(1, 10), cap=st.integers(min_value=0, max_value=64))
    def test_capped_searches(self, pattern, device_graph, cap):
        _assert_same_order(pattern, device_graph, cap)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pattern=_graphs(0, 6))
    def test_uncapped_searches(self, data, pattern):
        # Device graphs no wider than 7 nodes keep a full enumeration small.
        device_graph = data.draw(_graphs(max(1, pattern.number_of_nodes()), 7))
        _assert_same_order(pattern, device_graph, UNCAPPED)

    def test_cap_zero_returns_nothing(self):
        assert _enumerate(nx.path_graph(2), nx.cycle_graph(4), 0) == ()

    def test_a_self_loop_needs_a_self_loop(self):
        pattern = nx.Graph([(0, 1), (1, 1)])
        host = nx.Graph([(0, 1), (1, 2), (2, 3), (2, 2), (3, 3)])
        assert len(_enumerate(pattern, host, UNCAPPED)) == 3
        _assert_same_order(pattern, host, UNCAPPED)
        _assert_same_order(pattern, nx.cycle_graph(4), UNCAPPED)


def _named_graph(kind, size):
    return named_topology_device(kind, size, two_qubit_error=0.02, name=f"order_{kind}{size}").properties.graph()


def _heavy_hex_graph():
    edges = heavy_hex_topology(3)
    return topology_as_graph(1 + max(max(edge) for edge in edges), edges)


class TestNamedTargets:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _named_graph("line", 12),
            lambda: _named_graph("grid", 12),
            lambda: _named_graph("grid", 16),
            _heavy_hex_graph,
        ],
        ids=["line12", "grid12", "grid16", "heavy_hex"],
    )
    def test_pattern_set_on_target(self, build):
        graph = build()
        for pattern in PATTERNS.values():
            _assert_same_prefixes(pattern, graph, (1, 16, 100))


class TestTightBounds:
    """A pattern on a host whose every node meets its degree and triangle count exactly.

    A pruning rule that is one step too strict (``tri[d] > tri[p]`` or
    ``deg[d] > deg[p]``) finds no mapping here.
    """

    @pytest.mark.parametrize("size, count", [(3, 6), (4, 24)])
    def test_complete_graph_in_itself(self, size, count):
        clique = nx.complete_graph(size)
        expected = graphmatcher_mappings(clique, clique, UNCAPPED)
        assert len(expected) == count
        assert _enumerate(clique, clique, UNCAPPED) == expected

    def test_ring_in_itself(self):
        ring = nx.cycle_graph(6)
        assert len(_enumerate(ring, ring, UNCAPPED)) == 12
        _assert_same_order(ring, ring, UNCAPPED)


class TestNoGarbage:
    def test_a_search_leaves_nothing_for_the_cycle_collector(self):
        # A search's tables must be freed when it ends, not at the next
        # full collection: they would add to the peak RSS of a set-up.
        graph = generate_fleet(seed=2024, limit=2)[1].properties.graph()
        gc.collect()
        gc.disable()
        try:
            for cap in (1, 16, UNCAPPED):
                _enumerate(PATTERNS["path"], graph, cap)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFleet:
    def test_pattern_set_on_every_fleet_device(self):
        for device in generate_fleet(seed=2024, limit=96):
            graph = device.properties.graph()
            for pattern in PATTERNS.values():
                _assert_same_prefixes(pattern, graph, (1, 16))


class TestNoGraphMatcherOnTheJobPath:
    def test_cold_jobs_finish_without_graphmatcher(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("GraphMatcher was constructed")

        monkeypatch.setattr(nx.algorithms.isomorphism.GraphMatcher, "__init__", refuse)
        clear_all_caches()
        service = QRIOService(generate_fleet(seed=2024, limit=4), OrchestratorEngine(seed=3, canary_shots=64))
        ring = ((0, 1), (1, 2), (2, 3), (0, 3))
        jobs = [
            service.submit(ghz(4), JobRequirements(fidelity_threshold=0.5), shots=64),
            service.submit(
                qaoa_maxcut(ring, layers=1, gammas=[0.4], betas=[0.9]),
                JobRequirements(topology_edges=ring),
                shots=64,
            ),
        ]
        assert [job.wait(60).state for job in jobs] == [JobState.DONE, JobState.DONE]
        assert enumeration_cache().stats.misses > 0  # the jobs did run embedding searches
        clear_all_caches()
