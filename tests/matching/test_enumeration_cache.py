"""The memoized VF2 enumeration and the caches layered on top of it.

``find_exact_embeddings`` is the package's one VF2 loop.  It is memoized by
content (what VF2 reads, in the order it reads it), so these tests pin it
against independent references: a fresh ``GraphMatcher`` loop, the layout
pass's former inline loop, and the cache counters of a service run.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from repro.backends import generate_fleet, named_topology_device
from repro.circuits import ghz
from repro.circuits.algorithms import hardware_efficient_ansatz, qaoa_maxcut
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import grid_random_circuit, random_circuit
from repro.matching import (
    embedding_cost,
    evaluate_embeddings,
    find_exact_embeddings,
    greedy_embedding,
    topology_as_graph,
)
from repro.service import JobRequirements, OrchestratorEngine, QRIOService
from repro.transpiler.context import TranspileContext
from repro.transpiler.passes import VF2PerfectLayoutPass
from repro.transpiler.passes.layout_selection import _complete_layout, _interaction_graph, _placement_error_cost
from repro.utils.cache import (
    all_cache_stats,
    clear_all_caches,
    embedding_cache,
    enumeration_cache,
    enumeration_key,
    pattern_hash,
)

RING5 = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


def _fresh_enumeration(pattern, device_graph, cap):
    """Reference: a plain GraphMatcher loop, no shortcuts and no cache."""
    if pattern.number_of_nodes() == 0:
        return [[]]
    if pattern.number_of_nodes() > device_graph.number_of_nodes():
        return []
    mappings = []
    for count, mapping in enumerate(GraphMatcher(device_graph, pattern).subgraph_monomorphisms_iter()):
        if count >= cap:
            break
        mappings.append([(pattern_node, device_node) for device_node, pattern_node in mapping.items()])
    return mappings


def _as_pairs(embeddings):
    return [list(embedding.mapping.items()) for embedding in embeddings]


@st.composite
def _graphs(draw, min_nodes, max_nodes):
    """A graph with shuffled node and edge insertion order."""
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(range(size))))
    graph.add_edges_from(edges)
    return graph


def _reinserted(graph, node_order, edge_order):
    """The same labelled graph, built in another insertion order."""
    rebuilt = nx.Graph()
    rebuilt.add_nodes_from(node_order)
    edges = list(graph.edges)
    rebuilt.add_edges_from(edges[index] for index in edge_order)
    return rebuilt


class TestEnumerationOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        pattern=_graphs(0, 5),
        device_graph=_graphs(1, 8),
        cap=st.integers(min_value=0, max_value=24),
    )
    def test_memoized_enumeration_equals_a_fresh_graphmatcher_loop(self, pattern, device_graph, cap):
        expected = _fresh_enumeration(pattern, device_graph, cap)
        cold = find_exact_embeddings(pattern, device_graph, cap)
        hits = enumeration_cache().stats.hits
        warm = find_exact_embeddings(pattern, device_graph, cap)
        assert _as_pairs(cold) == expected
        assert _as_pairs(warm) == expected
        if pattern.number_of_nodes() and pattern.number_of_nodes() <= device_graph.number_of_nodes():
            assert enumeration_cache().stats.hits == hits + 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pattern=_graphs(2, 5), device_graph=_graphs(3, 8))
    def test_insertion_order_twins_each_get_their_own_order(self, data, pattern, device_graph):
        twin = _reinserted(
            pattern,
            data.draw(st.permutations(list(pattern.nodes))),
            data.draw(st.permutations(range(pattern.number_of_edges()))),
        )
        assert pattern_hash(twin) == pattern_hash(pattern)
        # Warm the cache with the original, then ask for the twin: a key that
        # ignored insertion order would serve the original's order here.
        find_exact_embeddings(pattern, device_graph, 24)
        assert _as_pairs(find_exact_embeddings(twin, device_graph, 24)) == _fresh_enumeration(
            twin, device_graph, 24
        )
        assert _as_pairs(find_exact_embeddings(pattern, device_graph, 24)) == _fresh_enumeration(
            pattern, device_graph, 24
        )

    def test_key_tracks_read_order_not_just_edges(self):
        line = nx.path_graph(4)
        twin = _reinserted(line, [3, 2, 1, 0], [2, 1, 0])
        device = nx.cycle_graph(6)
        assert pattern_hash(line) == pattern_hash(twin)
        assert enumeration_key(line, device, 16) != enumeration_key(twin, device, 16)
        assert enumeration_key(line, device, 16) != enumeration_key(line, device, 17)
        assert enumeration_key(line, device, 16) == enumeration_key(nx.path_graph(4), nx.cycle_graph(6), 16)

    def test_a_frozen_device_graph_keeps_its_half_of_the_key(self):
        device = nx.freeze(nx.cycle_graph(6))
        key = enumeration_key(nx.path_graph(4), device, 16)
        assert device._repro_adjacency_digest
        assert key == enumeration_key(nx.path_graph(4), nx.cycle_graph(6), 16)
        # An editable copy is not frozen: it neither inherits nor stores the digest.
        copy = nx.Graph(device)
        copy.add_edge(0, 3)
        assert not hasattr(copy, "_repro_adjacency_digest")
        assert enumeration_key(nx.path_graph(4), copy, 16) != key
        assert not hasattr(copy, "_repro_adjacency_digest")

    def test_infeasible_search_is_memoized(self):
        star = topology_as_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 1)])
        device = nx.path_graph(9)
        assert find_exact_embeddings(star, device) == []
        hits = enumeration_cache().stats.hits
        assert find_exact_embeddings(star, device) == []
        assert enumeration_cache().stats.hits == hits + 1

    def test_mutating_a_result_cannot_poison_the_cache(self):
        device = nx.cycle_graph(6)
        first = find_exact_embeddings(nx.path_graph(3), device)
        first[0].mapping[0] = 999
        assert find_exact_embeddings(nx.path_graph(3), device)[0].mapping[0] != 999


def _old_inline_layout(circuit, target, max_embeddings=16):
    """The VF2 loop the layout pass used to run itself, kept as a reference."""
    pairs = circuit.interaction_pairs()
    interaction = _interaction_graph(circuit.num_qubits, pairs)
    active = [node for node in interaction.nodes if interaction.degree(node) > 0]
    pattern = interaction.subgraph(active)
    device_graph = target.graph()
    pattern_degrees = sorted((d for _, d in pattern.degree()), reverse=True)
    device_degrees = sorted((d for _, d in device_graph.degree()), reverse=True)
    if not (
        len(device_degrees) >= len(pattern_degrees)
        and all(pd <= device_degrees[i] for i, pd in enumerate(pattern_degrees))
    ):
        return None, None
    best_layout, best_cost = None, float("inf")
    for count, mapping in enumerate(GraphMatcher(device_graph, pattern).subgraph_monomorphisms_iter()):
        if count >= max_embeddings:
            break
        placement = {virtual: physical for physical, virtual in mapping.items()}
        cost = _placement_error_cost(pairs, placement, target)
        if cost < best_cost:
            best_cost, best_layout = cost, placement
    if best_layout is None:
        return None, None
    return _complete_layout(best_layout, circuit.num_qubits, target.num_qubits), best_cost


def _layout_cases():
    fleet = generate_fleet(limit=6, seed=2024)
    uniform = [
        named_topology_device(kind, 9, two_qubit_error=0.02, name=f"uniform_{kind}9")
        for kind in ("line", "ring", "grid")
    ]
    star = QuantumCircuit(4)
    star.cx(0, 1).cx(0, 2).cx(0, 3)
    circuits = [
        ghz(5),
        star,
        qaoa_maxcut(RING5, layers=1, gammas=[0.4], betas=[0.9]),
        hardware_efficient_ansatz(4, layers=2, parameters=[0.1 * i for i in range(12)], measure=True),
        grid_random_circuit(2, 2, depth=4, seed=21),
        random_circuit(5, 4, seed=8, measure=True),
    ]
    return [(circuit, device.properties) for device in fleet + uniform for circuit in circuits]


class TestLayoutPassSharesTheEnumeration:
    def test_layout_pass_picks_the_old_inline_loops_layout(self):
        cases = _layout_cases()
        for _ in range(2):  # cold, then served from the enumeration cache
            for circuit, target in cases:
                if circuit.num_qubits > target.num_qubits:
                    continue
                expected_layout, expected_cost = _old_inline_layout(circuit, target)
                context = TranspileContext(target=target)
                VF2PerfectLayoutPass().run(circuit, context)
                if expected_layout is None:
                    assert context.initial_layout is None
                    continue
                assert context.initial_layout.as_list() == expected_layout.as_list(), (circuit.name, target.name)
                assert context.properties["layout_error_cost"] == expected_cost
        assert enumeration_cache().stats.hits > 0


class TestSeedlessScoredCache:
    def test_exact_pattern_hits_across_seeds(self):
        device = named_topology_device("ring", 8, two_qubit_error=0.03, name="ring8_seedless").properties
        pattern = topology_as_graph(4, [(0, 1), (1, 2), (2, 3)])
        first = evaluate_embeddings(pattern, device, seed=1)
        before = embedding_cache().stats.as_dict()
        second = evaluate_embeddings(pattern, device, seed=2)
        after = embedding_cache().stats.as_dict()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert [(item.embedding.mapping, item.score) for item in first] == [
            (item.embedding.mapping, item.score) for item in second
        ]

    def test_inexact_pattern_draws_a_greedy_result_per_seed(self):
        device = named_topology_device("line", 8, two_qubit_error=0.03, name="line8_seedless").properties
        pattern = topology_as_graph(5, RING5)
        misses = enumeration_cache().stats.misses
        results = {seed: evaluate_embeddings(pattern, device, seed=seed) for seed in (1, 2)}
        assert len(embedding_cache()) == 0  # greedy results are never stored
        for seed, scored in results.items():
            assert len(scored) == 1 and not scored[0].exact
            assert scored[0].embedding.mapping == greedy_embedding(pattern, device, seed=seed).mapping
        assert results[1][0].embedding.mapping != results[2][0].embedding.mapping
        # The proof that no exact embedding exists was enumerated once.
        assert enumeration_cache().stats.misses == misses + 1

    def test_scores_do_not_depend_on_the_shared_graph(self):
        pattern = topology_as_graph(5, RING5)
        exact_host = generate_fleet(limit=3, seed=2024)[1].properties
        greedy_host = named_topology_device("line", 8, two_qubit_error=0.03, name="line8_shared").properties
        for device in (exact_host, greedy_host):
            embedding_cache().clear()
            for scored in evaluate_embeddings(pattern, device, seed=4):
                assert scored.score == embedding_cost(pattern, scored.embedding, device)


class TestServiceSweepHitsTheEmbeddingCache:
    def test_second_fresh_angle_qaoa_job_hits_on_every_device(self):
        fleet = generate_fleet(limit=6, seed=2024)
        service = QRIOService(fleet, OrchestratorEngine(seed=7, canary_shots=64))
        deltas = []
        for gamma, beta in ((0.3, 0.7), (1.1, 0.2)):
            before = all_cache_stats()["embedding"]
            circuit = qaoa_maxcut(RING5, layers=1, gammas=[gamma], betas=[beta])
            service.submit(circuit, JobRequirements(topology_edges=RING5), shots=64).result()
            after = all_cache_stats()["embedding"]
            deltas.append((after["hits"] - before["hits"], after["misses"] - before["misses"]))
        (cold_hits, cold_misses), (warm_hits, warm_misses) = deltas
        assert (cold_hits, cold_misses) == (0, len(fleet))
        assert (warm_hits, warm_misses) == (len(fleet), 0)
