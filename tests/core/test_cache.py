"""Tests for the fleet-wide memoization layer (repro.utils.cache)."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import three_device_testbed
from repro.circuits import QuantumCircuit, ghz
from repro.cloud.calibration import CalibrationDriftModel
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.fidelity.canary import CliffordCanaryEstimator
from repro.matching import interaction_graph, rank_devices_scalable, scalable_match_device
from repro.policies import resolve_policy
from repro.service import JobRequirements, JobSpec, OrchestratorEngine, QRIOService
from repro.service.engines import _PlanStore
from repro.utils import cache as cache_module
from repro.utils.cache import (
    CacheStats,
    LRUCache,
    PLAN_STATS,
    all_cache_stats,
    calibration_fingerprint,
    clear_all_caches,
    embedding_cache,
    fleet_calibration_epoch,
    pattern_hash,
    structural_circuit_hash,
)
from repro.workloads.arrivals import JobRequest


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
        cache.drop_where(lambda value: value == "c")
        cache.put("d", "d")
        cache.put("e", "e")  # over the bound: "b" is still the LRU survivor
        assert "b" not in cache
        assert "a" in cache and "d" in cache and "e" in cache
        assert cache.stats.evictions == 1

    def test_drop_where_reports_how_many_entries_were_dropped(self):
        cache = LRUCache(maxsize=4)
        for key in "abc":
            cache.put(key, key)
        assert cache.drop_where(lambda value: value in "ab") == 2
        assert cache.drop_where(lambda value: value in "ab") == 0
        assert "c" in cache
        assert len(cache) == 1

    def test_drop_where_leaves_the_statistics_alone(self):
        """Purging stale entries is neither a lookup nor an LRU eviction."""
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.drop_where(lambda value: True)
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

    def test_an_unedited_circuit_is_digested_once(self, monkeypatch):
        digests = []
        digest = cache_module._structure_digest
        monkeypatch.setattr(cache_module, "_structure_digest", lambda c: digests.append(1) or digest(c))
        circuit = ghz(3)
        first = structural_circuit_hash(circuit)
        assert structural_circuit_hash(circuit) == first
        assert digests == [1]
        circuit.x(0)
        assert structural_circuit_hash(circuit) == digest(circuit) != first
        assert digests == [1, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["h", "x", "rz", "cx"]), st.integers(0, 2)), max_size=10))
    def test_the_memo_follows_every_append(self, gates):
        circuit = QuantumCircuit(3)
        assert structural_circuit_hash(circuit) == cache_module._structure_digest(circuit)
        copy = circuit.copy()
        for name, qubit in gates:
            if name == "rz":
                circuit.rz(0.1 * qubit, qubit)
            elif name == "cx":
                circuit.cx(qubit, (qubit + 1) % 3)
            else:
                getattr(circuit, name)(qubit)
            assert structural_circuit_hash(circuit) == cache_module._structure_digest(circuit)
        # A copy carries its own memo, so the original's edits never reach it.
        assert structural_circuit_hash(copy) == structural_circuit_hash(QuantumCircuit(3))
        restored = pickle.loads(pickle.dumps(circuit))
        restored.measure_all()
        assert structural_circuit_hash(restored) == cache_module._structure_digest(restored)


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

    def test_digest_values_are_pinned(self):
        fleet = three_device_testbed()
        assert [calibration_fingerprint(b.properties) for b in fleet] == [
            "96def8677d9a881582223b1aa288e0b1",
            "c52614fe40df4acca88c8bbfef308766",
            "ba835f9098658cbd1499245a7026a373",
        ]
        assert structural_circuit_hash(ghz(4)) == "cf7df93573c8c989ac62e60697a151a0"


def _uncached_fingerprint(properties) -> str:
    """The fingerprint digested straight from the live fields, with no memo."""

    def parts():
        yield f"{properties.name}|{properties.num_qubits}"
        yield "basis:" + ",".join(properties.basis_gates)
        yield "coupling:" + ";".join(f"{a}-{b}" for a, b in properties.coupling_map)
        for label, table in (
            ("e2", properties.two_qubit_error),
            ("e1", properties.one_qubit_error),
            ("ro", properties.readout_error),
            ("rl", properties.readout_length),
            ("t1", properties.t1),
            ("t2", properties.t2),
        ):
            entries = ";".join(
                f"{key}:{format(float(value), '.12g')}"
                for key, value in sorted(table.items(), key=lambda kv: str(kv[0]))
            )
            yield f"{label}:{entries}"

    return cache_module._digest(parts())


_TABLES = ("two_qubit_error", "one_qubit_error", "readout_error", "readout_length", "t1", "t2")

#: One in-place or reassigning edit of a device's calibration.
_EDITS = st.one_of(
    st.tuples(st.just("drift"), st.sampled_from(_TABLES), st.integers(0, 50), st.floats(0.5, 2.0)),
    st.tuples(st.just("reassign"), st.sampled_from(_TABLES), st.integers(0, 50), st.floats(0.5, 2.0)),
    st.tuples(st.just("delete"), st.sampled_from(_TABLES), st.integers(0, 50), st.just(1.0)),
    st.tuples(st.just("append_edge"), st.just(""), st.integers(0, 50), st.just(1.0)),
    st.tuples(st.just("basis"), st.just(""), st.integers(0, 50), st.just(1.0)),
    st.tuples(st.just("name"), st.just(""), st.integers(0, 50), st.just(1.0)),
    st.tuples(st.just("num_qubits"), st.just(""), st.integers(0, 50), st.just(1.0)),
    st.tuples(st.just("none"), st.just(""), st.integers(0, 50), st.just(1.0)),
)


def _apply_edit(properties, edit) -> None:
    kind, table_name, index, factor = edit
    if table_name:
        table = getattr(properties, table_name)
        keys = sorted(table, key=str)
        key = keys[index % len(keys)] if keys else None
    if kind == "drift" and key is not None:
        table[key] = table[key] * factor + 1e-9
    elif kind == "reassign":
        setattr(properties, table_name, {k: v * factor for k, v in table.items()})
    elif kind == "delete" and key is not None:
        del table[key]
    elif kind == "append_edge":
        a, b = index % properties.num_qubits, (index + 2) % properties.num_qubits
        if a != b:
            properties.coupling_map.append((min(a, b), max(a, b)))
    elif kind == "basis":
        properties.basis_gates = properties.basis_gates + (f"g{index}",)
    elif kind == "name":
        properties.name = f"{properties.name}-{index}"
    elif kind == "num_qubits":
        properties.num_qubits += 1


class TestFingerprintMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2), st.lists(_EDITS, min_size=1, max_size=12))
    def test_memoised_fingerprint_equals_an_uncached_digest_at_every_step(self, device, edits):
        properties = three_device_testbed()[device].properties
        assert calibration_fingerprint(properties) == _uncached_fingerprint(properties)
        for edit in edits:
            _apply_edit(properties, edit)
            assert calibration_fingerprint(properties) == _uncached_fingerprint(properties)
            # A repeat call is a memo hit with the same digest.
            assert calibration_fingerprint(properties) == _uncached_fingerprint(properties)

    def test_a_repeat_call_digests_nothing(self, monkeypatch):
        properties = three_device_testbed()[0].properties
        calibration_fingerprint(properties)
        digests = []
        digest = cache_module._calibration_digest
        monkeypatch.setattr(cache_module, "_calibration_digest", lambda snapshot: digests.append(1) or digest(snapshot))
        calibration_fingerprint(properties)
        assert digests == []
        properties.t2[0] *= 1.01
        calibration_fingerprint(properties)
        assert digests == [1]

    def test_the_digest_reads_the_snapshot_not_the_live_tables(self, monkeypatch):
        """A write racing the digest can only cause a miss, never a wrong hit."""
        properties = three_device_testbed()[0].properties
        original = properties.t2[0]
        digest = cache_module._calibration_digest

        def drifting_digest(snapshot):
            properties.t2[0] = original * 2.0  # a write landing mid-digest
            return digest(snapshot)

        monkeypatch.setattr(cache_module, "_calibration_digest", drifting_digest)
        calibration_fingerprint(properties)
        monkeypatch.setattr(cache_module, "_calibration_digest", digest)
        properties.t2[0] = original
        assert calibration_fingerprint(properties) == _uncached_fingerprint(properties)
        properties.t2[0] = original * 2.0
        assert calibration_fingerprint(properties) == _uncached_fingerprint(properties)

    def test_memoised_properties_pickle_and_keep_their_fingerprint(self):
        properties = three_device_testbed()[1].properties
        fingerprint = calibration_fingerprint(properties)
        restored = pickle.loads(pickle.dumps(properties))
        assert restored == properties
        assert calibration_fingerprint(restored) == fingerprint
        restored.readout_error[0] = 0.25
        assert calibration_fingerprint(restored) == _uncached_fingerprint(restored) != fingerprint
        assert calibration_fingerprint(properties) == fingerprint


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
    """Each estimator owns its canary's ideal counts; nothing is shared."""

    def test_a_ranking_runs_one_ideal_distribution(self, monkeypatch):
        runs = []
        inner = CliffordCanaryEstimator.ideal_distribution

        def spy(self, canary):
            runs.append(canary.name)
            return inner(self, canary)

        monkeypatch.setattr(CliffordCanaryEstimator, "ideal_distribution", spy)
        fleet = three_device_testbed()
        first = CliffordCanaryEstimator(shots=128, seed=1)
        first.estimate_many(ghz(3), fleet)
        assert len(runs) == 1
        # A second estimator computes its own counts from its own seed: a
        # warm process changes neither how often nor what it samples.
        second = CliffordCanaryEstimator(shots=128, seed=999)
        reports = second.estimate_many(ghz(3), fleet)
        assert len(runs) == 2
        alone = CliffordCanaryEstimator(shots=128, seed=999).estimate_many(ghz(3), fleet)
        assert [r.canary_fidelity for r in reports] == [r.canary_fidelity for r in alone]

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


def _plan(backend, fingerprint=None):
    """A stand-in plan: the store reads only its device and fingerprint."""
    if fingerprint is None:
        fingerprint = calibration_fingerprint(backend.properties)
    return SimpleNamespace(device=backend.name, calibration_fingerprint=fingerprint)


class TestPlanCache:
    """Each orchestrator engine owns one ``_PlanStore``."""

    def test_key_bundles_identity_and_context(self):
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore()
        store.store(spec, _plan(three_device_testbed()[0]))
        digest = structural_circuit_hash(spec.circuit)
        assert (digest, spec.requirements, 64) in store
        assert (digest, spec.requirements, 128) not in store
        other_requirements = JobSpec(ghz(3), JobRequirements(fidelity_threshold=0.9), shots=64)
        assert other_requirements.dedup_key() not in store

    def test_get_put_and_stats(self):
        backend = three_device_testbed()[0]
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore()
        before = PLAN_STATS.as_dict()
        assert store.lookup(spec, {backend.name: backend}.get) is None
        plan = _plan(backend)
        store.store(spec, plan)
        assert store.lookup(spec, {backend.name: backend}.get) is plan
        assert PLAN_STATS.hits - before["hits"] == 1
        assert PLAN_STATS.misses - before["misses"] == 1
        assert len(store) == 1

    def test_record_miss_counts_keyless_cold_submits(self):
        """A never-placed workload has no plan to probe; its miss still counts."""
        misses = PLAN_STATS.misses
        store = _PlanStore()
        assert store.lookup(JobSpec(ghz(3), shots=64), {}.get) is None
        assert PLAN_STATS.misses == misses + 1
        assert len(store) == 0

    def test_invalidate_device_drops_only_stale_fingerprints(self):
        fleet = three_device_testbed()
        engine = OrchestratorEngine(seed=5)
        engine.attach(fleet)
        other = OrchestratorEngine(seed=5)
        other.attach(three_device_testbed())
        dev_a, dev_b = fleet[0], fleet[1]
        drifted = CalibrationDriftModel().drift_properties(dev_a.properties, seed=1)
        fresh = calibration_fingerprint(drifted)
        store = engine._plans
        store.put("d1-old", _plan(dev_a, "old"))
        store.put("d2-old", _plan(dev_a, "old"))
        store.put("d1-fresh", _plan(dev_a, fresh))
        store.put("d1-other-device", _plan(dev_b, "old"))
        other._plans.put("d1-old", _plan(dev_a, "old"))
        engine.apply_calibration(dev_a.name, drifted)
        assert len(store) == 2
        assert "d1-fresh" in store and "d1-other-device" in store
        # Another engine's store is not touched by this engine's push.
        assert "d1-old" in other._plans

    def test_lookup_on_a_device_gone_from_the_fleet_is_a_miss(self):
        """A plan whose device left the fleet misses, without a purge."""
        backend = three_device_testbed()[0]
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore()
        store.store(spec, _plan(backend))
        misses = PLAN_STATS.misses
        assert store.lookup(spec, {}.get) is None
        assert PLAN_STATS.misses == misses + 1
        # Nothing is purged: the device may come back with the same calibration.
        assert store.lookup(spec, {backend.name: backend}.get) is not None

    def test_invalidate_device_without_keep_drops_everything_for_it(self):
        """A warm lookup that misses on a moved fingerprint purges the device."""
        backend, bystander = three_device_testbed()[:2]
        spec = JobSpec(ghz(3), shots=64)
        store = _PlanStore()
        store.store(spec, _plan(backend))
        store.put("other-digest", _plan(backend, "older"))
        store.put("bystander", _plan(bystander))
        backend.properties = CalibrationDriftModel().drift_properties(backend.properties, seed=1)
        misses = PLAN_STATS.misses
        assert store.lookup(spec, {backend.name: backend}.get) is None
        assert PLAN_STATS.misses == misses + 1
        assert len(store) == 1 and "bystander" in store

    def test_each_engine_owns_its_plans(self):
        fleet = three_device_testbed()
        owner = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        owner.submit(ghz(3), 0.9, shots=64).result()
        bystander = OrchestratorEngine(seed=5, canary_shots=64)
        QRIOService(fleet, bystander)
        assert len(owner.engine._plans) == 1
        assert len(bystander._plans) == 0
        # The shared caches' reset leaves an engine's plans alone.
        clear_all_caches()
        assert len(owner.engine._plans) == 1

    def test_all_cache_stats_exposes_the_plan_entry(self):
        stats = all_cache_stats()
        assert "plan" in stats
        assert {"hits", "misses"} <= set(stats["plan"])
        # Canaries keep their own ideal counts: the row stays for readers.
        assert stats["ideal_distribution"] == CacheStats().as_dict()


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
