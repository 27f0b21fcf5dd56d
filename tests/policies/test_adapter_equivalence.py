"""Adapter equivalence: every legacy policy vs its unified port, pinned.

The regression contract of the policy redesign: porting the five cloud
allocation policies, both meta-server ranking strategies and the cluster
filter/score plugins onto :class:`~repro.policies.PlacementPolicy` changed
*nothing* about routing — identical feasibility sets, identical RNG
consumption, identical tie-breaking, identical scores.
"""

import pytest

from repro.backends import generate_fleet, three_device_testbed
from repro.circuits import bernstein_vazirani, ghz
from repro.scenarios.arrivals import JobRequest
from repro.cloud.policies import (
    FidelityPolicy,
    LeastLoadedPolicy,
    QueueAwareFidelityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.cluster.registry import ClusterState
from repro.cluster.job import DeviceConstraints, JobSpec as ClusterJobSpec, ResourceRequest
from repro.core.meta_server import MetaServer
from repro.core.scheduler import MetaServerScorePlugin, QRIOScheduler, default_filter_plugins
from repro.core.strategies import FidelityRankingStrategy, TopologyRankingStrategy
from repro.core.visualizer import MetaServerPayload, TopologyCanvas
from repro.policies import (
    PlacementContext,
    PluginPolicyAdapter,
    RankingStrategyAdapter,
    as_allocation_policy,
    resolve_policy,
)
from repro.policies.builtin import ThresholdFidelityPolicy, TopologyPlacementPolicy
from repro.qasm import dump_qasm


def twenty_job_trace():
    """The pinned 20-job trace every cloud-policy pair must route identically."""
    circuits = [ghz(4), bernstein_vazirani("101"), ghz(5), ghz(3)]
    return [
        JobRequest(
            index=index,
            arrival_time=float(index) * 2.0,
            workload_key=f"w{index % 4}",
            circuit=circuits[index % 4],
            strategy="fidelity",
            fidelity_threshold=0.0,
            shots=128,
            user=f"user-{index % 3}",
        )
        for index in range(20)
    ]


#: (legacy policy factory, registry spec of the ported version)
CLOUD_POLICY_PAIRS = [
    (lambda: RandomPolicy(seed=11), "random:seed=11"),
    (lambda: RoundRobinPolicy(), "round-robin"),
    (lambda: LeastLoadedPolicy(), "least-loaded"),
    (lambda: FidelityPolicy(seed=5), "fidelity:seed=5"),
    (lambda: QueueAwareFidelityPolicy(seed=5), "fidelity:queue_weight=0.3,seed=5"),
]


class TestCloudPolicyEquivalence:
    @pytest.mark.parametrize(
        "legacy_factory, spec", CLOUD_POLICY_PAIRS, ids=[s for _, s in CLOUD_POLICY_PAIRS]
    )
    def test_ported_policy_routes_identically(self, legacy_factory, spec):
        fleet = generate_fleet(limit=6, seed=3)
        trace = twenty_job_trace()
        config = CloudSimulationConfig(fidelity_report="none", seed=7)
        legacy = CloudSimulator(fleet, legacy_factory(), config=config).run(trace)
        ported = CloudSimulator(
            fleet, as_allocation_policy(resolve_policy(spec)), config=config
        ).run(trace)
        assert [r.device for r in legacy.records] == [r.device for r in ported.records]
        assert [r.wait_time for r in legacy.records] == [r.wait_time for r in ported.records]

    def test_adapter_unwraps_instead_of_stacking(self):
        from repro.policies import AllocationPolicyAdapter

        legacy = LeastLoadedPolicy()
        assert as_allocation_policy(AllocationPolicyAdapter(legacy)) is legacy


class TestRankingStrategyEquivalence:
    def test_fidelity_strategy_scores_match(self):
        fleet = three_device_testbed()
        circuit = ghz(3)
        strategy = FidelityRankingStrategy(circuit, fidelity_threshold=0.9, shots=128, seed=13)
        ported = ThresholdFidelityPolicy(estimator="canary", canary_shots=128, seed=13)
        ctx = PlacementContext(fleet=fleet, circuit=circuit, fidelity_threshold=0.9)
        for backend in fleet:
            assert strategy.score(backend) == pytest.approx(ported.score(ctx, backend))

    def test_fidelity_strategy_adapter_picks_the_ranking_winner(self):
        fleet = three_device_testbed()
        circuit = ghz(3)
        strategy = FidelityRankingStrategy(circuit, fidelity_threshold=0.9, shots=128, seed=13)
        expected = min(fleet, key=lambda backend: (strategy.score(backend), backend.name))
        adapted = RankingStrategyAdapter(
            FidelityRankingStrategy(circuit, fidelity_threshold=0.9, shots=128, seed=13)
        )
        decision = adapted.decide(PlacementContext(fleet=fleet, circuit=circuit))
        assert decision.device == expected.name

    def test_topology_strategy_scores_match(self):
        fleet = three_device_testbed()
        canvas = TopologyCanvas(4)
        canvas.load_edges([(0, 1), (1, 2), (2, 3)])
        strategy = TopologyRankingStrategy(canvas.to_topology_circuit(), seed=5)
        ported = TopologyPlacementPolicy(seed=5)
        ctx = PlacementContext(
            fleet=fleet,
            strategy="topology",
            topology_edges=((0, 1), (1, 2), (2, 3)),
            required_qubits=4,
        )
        for backend in fleet:
            legacy_score = strategy.score(backend)
            feasible, _ = ported.filter(ctx, backend)
            if legacy_score == float("inf"):
                assert not feasible
            else:
                assert feasible
                assert ported.score(ctx, backend) == pytest.approx(legacy_score)


class TestClusterPluginEquivalence:
    def _cluster_fixture(self):
        fleet = three_device_testbed()
        cluster = ClusterState(name="adapter-test")
        meta = MetaServer(canary_shots=128, seed=17)
        for backend in fleet:
            cluster.register_backend(backend)
            meta.register_backend(backend)
        circuit = ghz(3)
        spec = ClusterJobSpec(
            name="plugin-job",
            image="test/plugin-job",
            circuit_qasm=dump_qasm(circuit),
            resources=ResourceRequest(qubits=3, cpu_millicores=500, memory_mb=512),
            constraints=DeviceConstraints(),
            strategy="fidelity",
            shots=64,
        )
        meta.upload_job_metadata(
            MetaServerPayload(
                job_name="plugin-job",
                strategy="fidelity",
                fidelity_threshold=0.9,
                circuit_qasm=dump_qasm(circuit),
            )
        )
        job = cluster.submit_job(spec)
        return fleet, cluster, meta, job, circuit

    def test_plugin_adapter_matches_framework_decision(self):
        fleet, cluster, meta, job, circuit = self._cluster_fixture()
        framework = QRIOScheduler(cluster, meta)
        framework_decision = framework.schedule(job, bind=False)

        adapter = PluginPolicyAdapter(
            filter_plugins=default_filter_plugins(),
            score_plugins=[MetaServerScorePlugin(meta)],
        )
        nodes = {node.backend.name: node for node in cluster.nodes()}
        ctx = PlacementContext(
            fleet=[node.backend for node in nodes.values()],
            circuit=circuit,
            job_name=job.name,
            native={"job": job, "nodes": nodes},
        )
        decision = adapter.decide(ctx)

        chosen_backend = cluster.node(framework_decision.node_name).backend.name
        assert decision.device == chosen_backend
        assert decision.score == pytest.approx(framework_decision.score)
        framework_scores = {
            cluster.node(name).backend.name: score
            for name, score in framework_decision.scores.items()
        }
        assert decision.scores == pytest.approx(framework_scores)

    def test_plugin_adapter_requires_native_objects(self):
        from repro.utils.exceptions import SchedulingError

        fleet = three_device_testbed()
        adapter = PluginPolicyAdapter(score_plugins=[])
        ctx = PlacementContext(fleet=fleet, circuit=ghz(3))
        with pytest.raises(SchedulingError, match="native"):
            adapter.score(ctx, fleet[0])
