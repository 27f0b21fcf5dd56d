"""Tests for the meta server and its two rankings (the registry policies).

The meta server scores a fidelity job through ``ThresholdFidelityPolicy``
and a topology job through ``TopologyPlacementPolicy``.  ``GOLDEN_SCORES``
holds every ``MetaServer.score`` on ``three_device_testbed()`` as recorded
when each ranking still had a second implementation of its own; a changed
surplus weight, canary seed, filter or embedding search moves at least one.
Each job's canary samples its own ideal counts, so the scores do not depend
on what ran earlier in the process.
"""

import pytest

from repro.backends import line_topology, three_device_testbed, uniform_error_device
from repro.circuits import QuantumCircuit, ghz
from repro.control.visualizer import MetaServerPayload, TopologyCanvas
from repro.core import MetaServer
from repro.experiments import quick_config, run_fig7
from repro.experiments.fig8_9 import USER_TREE_EDGES, user_topology_canvas
from repro.policies import (
    INFEASIBLE_SCORE,
    PlacementContext,
    ThresholdFidelityPolicy,
    TopologyPlacementPolicy,
)
from repro.qasm import dump_qasm
from repro.utils.cache import clear_all_caches
from repro.utils.exceptions import MetaServerError
from repro.workloads import evaluation_workload

#: job -> device -> score, for ``MetaServer(canary_shots=128, seed=7)``, each
#: job scored over the devices in name order.  Every job's canary samples its
#: own ideal counts from its own seed, the ``@0.7`` jobs included.  The
#: fidelity rows are 128-shot samples of each canary's exact outcome law.
GOLDEN_SCORES = {
    "ghz3@1.0": {
        "device_line": 0.19187531967290283,
        "device_ring": 0.14866944780388403,
        "device_tree": 0.10959249085546396,
    },
    "ghz3@0.7": {
        "device_line": 0.05115215593757841,
        "device_ring": 0.03592249437136122,
        "device_tree": 0.03550039186688361,
    },
    "grover@1.0": {
        "device_line": 0.020999068944396515,
        "device_ring": 0.009288085415068759,
        "device_tree": 0.03352919252634723,
    },
    "grover@0.7": {
        "device_line": 0.0695341221597762,
        "device_ring": 0.060748981175753614,
        "device_tree": 0.055922849759346166,
    },
    "tree": {"device_line": 2.3000000000000007, "device_ring": 2.0, "device_tree": 0.6500000000000001},
}

#: Jobs whose canary fidelity sums three or more nonzero Hellinger terms.
#: ``hellinger_fidelity`` adds them in ``set`` order, which follows the
#: per-process string-hash salt, so these scores can move in the last bits
#: between interpreter runs (the values above are from ``PYTHONHASHSEED=0``).
HASH_ORDER_SENSITIVE = {"grover@1.0", "grover@0.7"}


@pytest.fixture(scope="module")
def clean_and_dirty():
    clean = uniform_error_device("meta_clean", line_topology(6), 6, two_qubit_error=0.01,
                                 one_qubit_error=0.002, readout_error=0.01)
    dirty = uniform_error_device("meta_dirty", line_topology(6), 6, two_qubit_error=0.35,
                                 one_qubit_error=0.05, readout_error=0.1)
    return clean, dirty


def _fidelity_payload(name="meta-job", threshold=1.0, circuit=None):
    return MetaServerPayload(
        job_name=name,
        strategy="fidelity",
        fidelity_threshold=threshold,
        circuit_qasm=dump_qasm(circuit if circuit is not None else ghz(4)),
    )


def _topology_payload(name, circuit):
    return MetaServerPayload(job_name=name, strategy="topology", topology_qasm=dump_qasm(circuit))


def _server(devices, payload, **options):
    server = MetaServer(**options)
    server.register_backends(devices)
    server.upload_job_metadata(payload)
    return server


class TestFidelityRanking:
    def test_lower_score_for_better_device(self, clean_and_dirty):
        server = _server(clean_and_dirty, _fidelity_payload(), canary_shots=128, seed=3)
        assert server.score("meta-job", "meta_clean") < server.score("meta-job", "meta_dirty")

    def test_breakdown_recorded(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        policy = ThresholdFidelityPolicy(estimator="canary", canary_shots=128, seed=3)
        decision = policy.decide(PlacementContext(fleet=[clean], circuit=ghz(4), fidelity_threshold=1.0))
        detail = decision.ranked[0].detail
        assert decision.ranked[0].device == clean.name
        assert detail["required_fidelity"] == 1.0
        assert 0.0 <= detail["estimated_fidelity"] <= 1.0

    def test_small_device_scores_infinite(self, clean_and_dirty):
        server = _server(clean_and_dirty, _fidelity_payload(circuit=ghz(10)), canary_shots=64, seed=3)
        assert server.score("meta-job", "meta_clean") == INFEASIBLE_SCORE

    def test_moderate_threshold_prefers_closest_match(self, clean_and_dirty):
        # With a lax requirement the clean device over-provisions but is still
        # penalised less heavily than a device that misses the requirement.
        server = _server(clean_and_dirty, _fidelity_payload(threshold=0.5), canary_shots=128, seed=3)
        assert server.score("meta-job", "meta_dirty") > server.score("meta-job", "meta_clean")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            MetaServer().upload_job_metadata(_fidelity_payload(circuit=ghz(2), threshold=1.5))


class TestTopologyRanking:
    def test_tree_request_prefers_tree_device(self, testbed_devices):
        canvas = TopologyCanvas(10).load_edges(USER_TREE_EDGES)
        ctx = PlacementContext(
            fleet=testbed_devices,
            strategy="topology",
            topology_edges=tuple(canvas.edges()),
            required_qubits=10,
        )
        policy = TopologyPlacementPolicy(seed=1)
        decision = policy.decide(ctx)
        assert decision.device == "device_tree"
        assert decision.ranked[0].detail == {"exact_embedding": 1.0}
        tree = ctx.device("device_tree")
        layout = policy.layout_for(ctx, tree)
        coupled = {frozenset(edge) for edge in tree.properties.coupling_map}
        assert all(frozenset((layout[a], layout[b])) in coupled for a, b in USER_TREE_EDGES)

    def test_oversized_topology_is_infeasible(self, testbed_devices):
        canvas = TopologyCanvas(12).load_edges([(i, i + 1) for i in range(11)])
        server = _server(testbed_devices, _topology_payload("long-line", canvas.to_topology_circuit()))
        assert server.score("long-line", testbed_devices[0].name) == INFEASIBLE_SCORE

    def test_empty_topology_rejected(self):
        with pytest.raises(MetaServerError):
            MetaServer().upload_job_metadata(_topology_payload("empty", QuantumCircuit(3)))


class TestMetaServerGoldens:
    def test_scores_match_the_goldens(self):
        server = MetaServer(canary_shots=128, seed=7)
        server.register_backends(three_device_testbed())
        for label, circuit in (("ghz3", ghz(3)), ("grover", evaluation_workload("grover").circuit())):
            for threshold in (1.0, 0.7):
                server.upload_job_metadata(
                    _fidelity_payload(f"{label}@{threshold}", threshold, circuit)
                )
        tree = user_topology_canvas().to_topology_circuit()
        server.upload_job_metadata(_topology_payload("tree", tree))
        for job, expected in GOLDEN_SCORES.items():
            actual = {device: server.score(job, device) for device in server.backend_names()}
            if job in HASH_ORDER_SENSITIVE:
                assert actual == pytest.approx(expected, rel=1e-13, abs=0.0), job
            else:
                assert actual == expected, job

    def test_scores_do_not_depend_on_an_earlier_experiment(self):
        """A figure run that ranked grover first leaves the scores at their goldens."""
        # Empty shared caches make the experiment the first to rank grover.
        clear_all_caches()
        run_fig7(quick_config(), workloads=[evaluation_workload("grover")])
        server = MetaServer(canary_shots=128, seed=7)
        server.register_backends(three_device_testbed())
        circuit = evaluation_workload("grover").circuit()
        server.upload_job_metadata(_fidelity_payload("grover@1.0", 1.0, circuit))
        actual = {device: server.score("grover@1.0", device) for device in server.backend_names()}
        assert actual == pytest.approx(GOLDEN_SCORES["grover@1.0"], rel=1e-13, abs=0.0)


class TestMetaServer:
    def test_backend_registration_and_lookup(self, clean_and_dirty):
        clean, dirty = clean_and_dirty
        server = MetaServer(canary_shots=64, seed=1)
        server.register_backends([clean, dirty])
        assert server.backend_names() == ["meta_clean", "meta_dirty"]
        assert server.backend("meta_clean") is clean
        with pytest.raises(MetaServerError):
            server.backend("ghost")

    def test_fidelity_metadata_and_scoring(self, clean_and_dirty):
        server = _server(clean_and_dirty, _fidelity_payload(), canary_shots=64, seed=1)
        assert server.has_fidelity_threshold("meta-job")
        assert server.scoring_strategy_name("meta-job") == "fidelity"
        assert server.score("meta-job", "meta_clean") < server.score("meta-job", "meta_dirty")

    def test_score_cache_returns_same_value(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        server = _server([clean], _fidelity_payload(), canary_shots=64, seed=1)
        first = server.score("meta-job", "meta_clean")
        second = server.score("meta-job", "meta_clean")
        assert first == second

    def test_topology_metadata_and_scoring(self, testbed_devices):
        canvas = TopologyCanvas(10).load_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        server = _server(testbed_devices, _topology_payload("topo-job", canvas.to_topology_circuit()), seed=2)
        assert not server.has_fidelity_threshold("topo-job")
        scores = {name: server.score("topo-job", name) for name in server.backend_names()}
        assert min(scores, key=scores.get) == "device_tree"

    def test_incomplete_payloads_rejected(self):
        server = MetaServer()
        with pytest.raises(MetaServerError):
            server.upload_job_metadata(MetaServerPayload(job_name="x", strategy="fidelity"))
        with pytest.raises(MetaServerError):
            server.upload_job_metadata(MetaServerPayload(job_name="x", strategy="topology"))
        with pytest.raises(MetaServerError):
            server.upload_job_metadata(MetaServerPayload(job_name="x", strategy="psychic"))

    def test_unknown_job_metadata_raises(self):
        with pytest.raises(MetaServerError):
            MetaServer().job_metadata("ghost")

    def test_clear_job(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        server = _server([clean], _fidelity_payload(), canary_shots=64, seed=1)
        server.score("meta-job", "meta_clean")
        server.clear_job("meta-job")
        with pytest.raises(MetaServerError):
            server.job_metadata("meta-job")
