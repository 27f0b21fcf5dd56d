"""Tests for the fleet-wide memoization layer (repro.core.cache)."""

from types import SimpleNamespace

import pytest

from repro.backends import three_device_testbed
from repro.circuits import QuantumCircuit, ghz
from repro.scenarios.arrivals import JobRequest
from repro.cloud.calibration import CalibrationDriftModel
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.core.cache import (
    CacheStats,
    LRUCache,
    calibration_fingerprint,
    clear_all_caches,
    embedding_cache,
    fleet_calibration_epoch,
    ideal_distribution_cache,
    pattern_hash,
    plan_cache,
    structural_circuit_hash,
)
from repro.fidelity.canary import CliffordCanaryEstimator
from repro.matching import interaction_graph, rank_devices_scalable, scalable_match_device
from repro.policies import resolve_policy
from repro.service import ClusterEngine, JobSpec
from repro.service.engines import _PlanStore


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate every test from cache state left by other tests."""
    clear_all_caches()
    yield
    clear_all_caches()


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_drop_where_keeps_survivors_in_lru_order(self):
        cache = LRUCache(maxsize=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")  # recency: b, c, a
        cache.drop_where(lambda key: key == "c")
        cache.put("d", "d")
        cache.put("e", "e")  # over the bound: "b" is still the LRU survivor
        assert "b" not in cache
        assert "a" in cache and "d" in cache and "e" in cache
        assert cache.stats.evictions == 1

    def test_drop_where_reports_how_many_entries_were_dropped(self):
        cache = LRUCache(maxsize=4)
        for key in "abc":
            cache.put(key, key)
        assert cache.drop_where(lambda key: key in "ab") == 2
        assert cache.drop_where(lambda key: key in "ab") == 0
        assert "c" in cache
        assert len(cache) == 1

    def test_drop_where_leaves_the_statistics_alone(self):
        """Purging stale entries is neither a lookup nor an LRU eviction."""
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.drop_where(lambda key: True)
        assert cache.stats.as_dict() == CacheStats().as_dict()


class TestStructuralCircuitHash:
    def test_same_name_length_width_different_gates_hash_differently(self):
        """The collision the old name:len:num_qubits canary key suffered."""
        a = QuantumCircuit(2, 2, name="canary")
        a.h(0).cx(0, 1).measure_all()
        b = QuantumCircuit(2, 2, name="canary")
        b.x(0).cx(0, 1).measure_all()
        assert len(a) == len(b) and a.num_qubits == b.num_qubits and a.name == b.name
        assert structural_circuit_hash(a) != structural_circuit_hash(b)

    def test_name_does_not_enter_the_hash(self):
        a = ghz(3)
        b = ghz(3)
        b.name = "renamed"
        assert structural_circuit_hash(a) == structural_circuit_hash(b)

    def test_parameters_and_operands_enter_the_hash(self):
        a = QuantumCircuit(2)
        a.rz(0.5, 0)
        b = QuantumCircuit(2)
        b.rz(0.25, 0)
        c = QuantumCircuit(2)
        c.rz(0.5, 1)
        digests = {structural_circuit_hash(x) for x in (a, b, c)}
        assert len(digests) == 3


class TestPatternAndCalibrationHashes:
    def test_pattern_hash_tracks_edges_and_weights(self):
        g1 = interaction_graph(ghz(4, measure=False))
        g2 = interaction_graph(ghz(4, measure=False))
        assert pattern_hash(g1) == pattern_hash(g2)
        g2.add_edge(0, 3, weight=2)
        assert pattern_hash(g1) != pattern_hash(g2)

    def test_pattern_hash_ignores_edge_insertion_orientation(self):
        import networkx as nx

        forward = nx.Graph()
        forward.add_edge(1, 2)
        forward.add_edge(2, 3)
        backward = nx.Graph()
        backward.add_edge(3, 2)
        backward.add_edge(2, 1)
        assert pattern_hash(forward) == pattern_hash(backward)

    def test_calibration_drift_changes_the_fingerprint(self):
        device = three_device_testbed()[0]
        before = calibration_fingerprint(device.properties)
        drifted = CalibrationDriftModel().drift_properties(device.properties, seed=1)
        assert calibration_fingerprint(drifted) != before
        # Same calibration → same fingerprint (stable across calls).
        assert calibration_fingerprint(device.properties) == before


class TestEmbeddingCacheWiring:
    def test_scalable_match_hits_cache_on_repeat(self):
        device = three_device_testbed()[1]
        pattern = interaction_graph(ghz(5, measure=False))
        first = scalable_match_device(pattern, device, seed=3)
        hits_before = embedding_cache().stats.hits
        second = scalable_match_device(pattern, device, seed=3)
        assert embedding_cache().stats.hits == hits_before + 1
        assert first == second

    def test_calibration_drift_evicts_stale_scores(self):
        """A drifted calibration must miss — no stale embedding scores."""
        device = three_device_testbed()[1]
        pattern = interaction_graph(ghz(5, measure=False))
        scalable_match_device(pattern, device, seed=3)
        drifted = CalibrationDriftModel(two_qubit_spread=1.0).drift_backend(device, seed=9)
        misses_before = embedding_cache().stats.misses
        hits_before = embedding_cache().stats.hits
        scalable_match_device(pattern, drifted, seed=3)
        assert embedding_cache().stats.misses == misses_before + 1
        assert embedding_cache().stats.hits == hits_before

    def test_use_cache_false_bypasses_the_cache(self):
        device = three_device_testbed()[0]
        pattern = interaction_graph(ghz(4, measure=False))
        scalable_match_device(pattern, device, seed=1, use_cache=False)
        assert len(embedding_cache()) == 0

    def test_generator_and_none_seeds_are_not_memoized(self):
        """Fresh-entropy searches must stay independent across calls."""
        import numpy as np

        device = three_device_testbed()[0]
        pattern = interaction_graph(ghz(4, measure=False))
        scalable_match_device(pattern, device, seed=np.random.default_rng(4))
        scalable_match_device(pattern, device, seed=None)
        assert len(embedding_cache()) == 0

    def test_mutating_a_result_cannot_poison_the_cache(self):
        from repro.matching import best_embedding

        device = three_device_testbed()[1]
        pattern = interaction_graph(ghz(5, measure=False))
        first = best_embedding(pattern, device.properties, seed=3)
        first.embedding.mapping[0] = 999  # hostile caller
        second = best_embedding(pattern, device.properties, seed=3)
        assert second.embedding.mapping[0] != 999

    def test_rank_devices_scalable_warm_pass_is_all_hits(self):
        fleet = three_device_testbed()
        pattern = interaction_graph(ghz(5, measure=False))
        cold = rank_devices_scalable(pattern, fleet, seed=7)
        hits_before = embedding_cache().stats.hits
        warm = rank_devices_scalable(pattern, fleet, seed=7)
        assert embedding_cache().stats.hits == hits_before + len(fleet)
        assert [m.device for m in cold] == [m.device for m in warm]
        assert [m.score for m in cold] == [m.score for m in warm]


class TestIdealDistributionCacheWiring:
    def test_estimators_share_distributions_across_instances(self):
        circuit = ghz(3)
        first = CliffordCanaryEstimator(shots=128, seed=1)
        canary = first.build_canary(circuit)
        counts = first.ideal_distribution(canary)
        misses = ideal_distribution_cache().stats.misses
        second = CliffordCanaryEstimator(shots=128, seed=999)
        assert second.ideal_distribution(canary) == counts
        assert ideal_distribution_cache().stats.misses == misses  # pure hit

    def test_shot_budget_is_part_of_the_key(self):
        circuit = ghz(3)
        estimator_a = CliffordCanaryEstimator(shots=128, seed=1)
        estimator_b = CliffordCanaryEstimator(shots=256, seed=1)
        canary = estimator_a.build_canary(circuit)
        counts_a = estimator_a.ideal_distribution(canary)
        counts_b = estimator_b.ideal_distribution(canary)
        assert sum(counts_a.values()) == 128
        assert sum(counts_b.values()) == 256

    def test_structurally_distinct_same_name_canaries_do_not_collide(self):
        """Regression for the old name:len:num_qubits key."""
        estimator = CliffordCanaryEstimator(shots=200, seed=5)
        zeros = QuantumCircuit(2, 2, name="twin")
        zeros.h(0).h(0).measure_all()  # HH = identity → all zeros
        ones = QuantumCircuit(2, 2, name="twin")
        ones.x(0).x(1).measure_all()  # same length, width and name
        assert estimator.ideal_distribution(zeros) == {"00": 200}
        assert estimator.ideal_distribution(ones) == {"11": 200}


class TestFleetCalibrationEpoch:
    def test_epoch_is_stable_and_order_independent(self):
        fleet = three_device_testbed()
        epoch = fleet_calibration_epoch(fleet)
        assert isinstance(epoch, str)
        assert fleet_calibration_epoch(reversed(list(fleet))) == epoch
        # A rebuilt (but identical) testbed lands on the same epoch — the
        # property the salted builtin ``hash`` could not give us.
        assert fleet_calibration_epoch(three_device_testbed()) == epoch

    def test_any_device_drifting_changes_the_epoch(self):
        fleet = list(three_device_testbed())
        before = fleet_calibration_epoch(fleet)
        fleet[1] = CalibrationDriftModel().drift_backend(fleet[1], seed=2)
        assert fleet_calibration_epoch(fleet) != before


def _plan_key(spec, device, fingerprint, engine="cluster", seed=5):
    """The key layout ``_PlanStore`` files a plan under."""
    return (structural_circuit_hash(spec.circuit), device, fingerprint, engine, seed, spec.requirements, spec.shots)


class TestPlanCache:
    def test_key_bundles_identity_and_context(self):
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore("cluster", 5)
        store.store(spec, SimpleNamespace(device="device_a", calibration_fingerprint="fp0"))
        assert _plan_key(spec, "device_a", "fp0") in plan_cache()
        assert _plan_key(spec, "device_a", "fp1") not in plan_cache()
        assert _plan_key(spec, "device_a", "fp0", seed=6) not in plan_cache()

    def test_get_put_and_stats(self):
        cache = plan_cache()
        before = cache.stats.as_dict()
        key = ("d", "dev", "fp")
        assert cache.get(key) is None
        cache.put(key, "plan")
        assert cache.get(key) == "plan"
        assert cache.stats.hits - before["hits"] == 1
        assert cache.stats.misses - before["misses"] == 1
        assert len(cache) == 1

    def test_record_miss_counts_keyless_cold_submits(self):
        """A never-placed workload has no key to probe; its miss still counts."""
        misses = plan_cache().stats.misses
        assert _PlanStore("cluster", 5).lookup(JobSpec(ghz(3), shots=64), {}) is None
        assert plan_cache().stats.misses == misses + 1
        assert len(plan_cache()) == 0

    def test_invalidate_device_drops_only_stale_fingerprints(self):
        fleet = three_device_testbed()
        engine = ClusterEngine(seed=5)
        engine.attach(fleet)
        dev_a, dev_b = fleet[0].name, fleet[1].name
        drifted = CalibrationDriftModel().drift_properties(fleet[0].properties, seed=1)
        fresh = calibration_fingerprint(drifted)
        cache = plan_cache()
        cache.put(("d1", dev_a, "old"), "stale-1")
        cache.put(("d2", dev_a, "old"), "stale-2")
        cache.put(("d1", dev_a, fresh), "fresh")
        cache.put(("d1", dev_b, "old"), "other-device")
        engine.apply_calibration(dev_a, drifted)
        assert len(cache) == 2
        assert cache.get(("d1", dev_a, fresh)) == "fresh"
        assert cache.get(("d1", dev_b, "old")) == "other-device"
        assert cache.get(("d1", dev_a, "old")) is None

    def test_lookup_on_a_device_gone_from_the_fleet_is_a_miss(self):
        """A memoized placement whose device left the fleet probes no fingerprint."""
        backend = three_device_testbed()[0]
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore("cluster", 5)
        fingerprint = calibration_fingerprint(backend.properties)
        store.store(spec, SimpleNamespace(device=backend.name, calibration_fingerprint=fingerprint))
        misses = plan_cache().stats.misses
        assert store.lookup(spec, {}) is None
        assert plan_cache().stats.misses == misses + 1
        # Nothing is purged: the device may come back with the same calibration.
        assert store.lookup(spec, {backend.name: backend}) is not None

    def test_invalidate_device_without_keep_drops_everything_for_it(self):
        """A warm lookup that misses on a moved fingerprint purges the device."""
        backend = three_device_testbed()[0]
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore("cluster", 5)
        old = calibration_fingerprint(backend.properties)
        store.store(spec, SimpleNamespace(device=backend.name, calibration_fingerprint=old))
        plan_cache().put(("other-digest", backend.name, "older"), "p1")
        backend.properties = CalibrationDriftModel().drift_properties(backend.properties, seed=1)
        assert store.lookup(spec, {backend.name: backend}) is None
        assert len(plan_cache()) == 0

    def test_shared_instance_is_cleared_with_the_other_caches(self):
        shared = plan_cache()
        shared.put(("d", "dev", "fp"), "plan")
        clear_all_caches()
        assert len(shared) == 0

    def test_all_cache_stats_exposes_the_plan_entry(self):
        from repro.core.cache import all_cache_stats

        stats = all_cache_stats()
        assert "plan" in stats
        assert {"hits", "misses"} <= set(stats["plan"])


class TestAllocationContextEpoch:
    def test_epoch_bump_forces_fidelity_recompute(self):
        """A cloud session's calibration epoch keys its policy fidelity cache."""
        fleet = three_device_testbed()
        simulator = CloudSimulator(
            fleet, resolve_policy("fidelity:seed=1"), CloudSimulationConfig(fidelity_report="none")
        )
        session = simulator.open_session()
        request = JobRequest(
            index=0,
            arrival_time=0.0,
            workload_key="ghz4",
            circuit=ghz(4),
            strategy="fidelity",
            fidelity_threshold=0.0,
            shots=128,
            user="u0",
        )
        session.route(request, candidates=[fleet[0].name])
        assert len(session._fidelity_cache) == 1
        session.notice_calibration_change()
        session.route(request, candidates=[fleet[0].name])
        # The stale epoch-0 entry is dead; a fresh epoch-1 entry was computed.
        assert len(session._fidelity_cache) == 2
        assert {key[2] for key in session._fidelity_cache} == {0, 1}


class TestCloudExecuteFidelityCache:
    def _trace(self, jobs):
        circuit = ghz(4)
        return [
            JobRequest(
                index=i,
                arrival_time=float(i),
                workload_key="ghz4",
                circuit=circuit,
                strategy="fidelity",
                fidelity_threshold=0.0,
                shots=64,
                user="u0",
            )
            for i in range(jobs)
        ]

    def test_repeated_jobs_share_one_execution(self):
        fleet = three_device_testbed()
        config = CloudSimulationConfig(
            fidelity_report="execute", execution_shots=64, reuse_fidelity_cache=True, seed=3
        )
        simulator = CloudSimulator(fleet, resolve_policy("least-loaded"), config=config)
        result = simulator.run(self._trace(6))
        fidelities = {record.device: record.fidelity for record in result.records}
        for record in result.records:
            assert record.fidelity == fidelities[record.device]
        # One cached execution per device the trace actually used.
        assert len(simulator._execute_fidelity_cache) == len({r.device for r in result.records})

    def test_cache_toggle_off_recomputes(self):
        fleet = three_device_testbed()
        config = CloudSimulationConfig(
            fidelity_report="execute", execution_shots=64, reuse_fidelity_cache=False, seed=3
        )
        simulator = CloudSimulator(fleet, resolve_policy("least-loaded"), config=config)
        simulator.run(self._trace(4))
        assert len(simulator._execute_fidelity_cache) == 0
