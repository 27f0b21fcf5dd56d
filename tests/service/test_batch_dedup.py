"""Batch submission dedup: N identical circuits pay for one scheduling pass.

The acceptance property of the service redesign: a ``submit_batch`` of 32
structurally-identical jobs performs exactly **one** embedding search (for
topology requirements) and exactly **one** canary ideal-distribution
stabilizer run (for fidelity requirements), asserted through the
embedding-cache statistics and a spy on the canary estimator, and every
handle shares the single execution's result.
"""

import pytest

from repro.backends import three_device_testbed
from repro.circuits import ghz
from repro.circuits.circuit import QuantumCircuit
from repro.fidelity.canary import CliffordCanaryEstimator
from repro.service import (
    JobRequirements,
    JobState,
    OrchestratorEngine,
    QRIOService,
)
from repro.utils.cache import all_cache_stats, clear_all_caches

BATCH = 32


def _fresh_ghz_copies(num_qubits, count):
    """Structurally-identical circuits built independently (distinct objects)."""
    return [ghz(num_qubits) for _ in range(count)]


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


class TestFidelityBatchDedup:
    def test_32_identical_jobs_run_one_canary_distribution(self, monkeypatch):
        runs = []
        inner = CliffordCanaryEstimator.ideal_distribution
        monkeypatch.setattr(
            CliffordCanaryEstimator,
            "ideal_distribution",
            lambda self, canary: runs.append(canary.name) or inner(self, canary),
        )
        fleet = three_device_testbed()
        service = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        handles = service.submit_batch(_fresh_ghz_copies(3, BATCH), 0.9, shots=64)
        service.process()
        # Exactly one stabilizer run: the group's one ranking computes the
        # distribution once and shares it across every device's canary.
        assert len(runs) == 1
        stats = service.stats()
        assert stats["groups_executed"] == 1
        assert stats["jobs_deduplicated"] == BATCH - 1
        assert stats["jobs_succeeded"] == BATCH
        assert all(handle.state == JobState.DONE for handle in handles)

    def test_all_handles_share_the_single_execution(self):
        fleet = three_device_testbed()
        service = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        handles = service.submit_batch(_fresh_ghz_copies(3, BATCH), 0.9, shots=64)
        service.process()
        results = [handle.result() for handle in handles]
        leader = results[0]
        assert not leader.deduplicated
        for result in results[1:]:
            assert result.deduplicated
            assert result.counts == leader.counts
            assert result.device == leader.device
            assert result.group_size == BATCH
        # Handles keep distinct identities even when the work was shared.
        assert len({result.job_name for result in results}) == BATCH

    def test_structurally_different_circuits_are_not_grouped(self):
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        service.submit_batch([ghz(3), ghz(4), ghz(3)], 0.9, shots=64)
        service.process()
        stats = service.stats()
        assert stats["groups_executed"] == 2
        assert stats["jobs_deduplicated"] == 1

    def test_same_structure_different_shots_not_grouped(self):
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        first = service.submit(ghz(3), 0.9, shots=64)
        second = service.submit(ghz(3), 0.9, shots=128)
        service.process()
        assert first.result().shots == 64
        assert second.result().shots == 128
        assert service.stats()["groups_executed"] == 2

    def test_renamed_circuit_still_dedups_on_structure(self):
        # Structural hashing ignores circuit names: a renamed copy groups.
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        a = ghz(3)
        b = ghz(3)
        b.name = "completely-different-name"
        service.submit_batch([a, b], 0.9, shots=64)
        service.process()
        assert service.stats()["groups_executed"] == 1


class TestTopologyBatchDedup:
    def test_32_identical_jobs_run_one_embedding_search_per_device(self):
        fleet = three_device_testbed()
        requirements = JobRequirements(topology_edges=((0, 1), (1, 2)))
        service = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        before = all_cache_stats()["embedding"]
        service.submit_batch(_fresh_ghz_copies(3, BATCH), requirements, shots=64)
        service.process()
        after = all_cache_stats()["embedding"]
        # One scheduling pass = one cold embedding search per device; no
        # lookup is even attempted for the other 31 jobs.
        assert after["misses"] - before["misses"] == len(fleet)
        assert after["hits"] - before["hits"] == 0
        assert service.stats()["groups_executed"] == 1

    def test_sequential_submission_replays_the_cached_plan(self):
        # Contrast case: one-at-a-time submission of the same 4 jobs pays one
        # cold scheduling pass (one embedding lookup per device); jobs 2-4
        # bind straight from the execution-plan cache and never touch the
        # embedding cache at all.
        fleet = three_device_testbed()
        requirements = JobRequirements(topology_edges=((0, 1), (1, 2)))
        service = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        before = all_cache_stats()["embedding"]
        before_plan = all_cache_stats()["plan"]
        for circuit in _fresh_ghz_copies(3, 4):
            service.submit(circuit, requirements, shots=64).result()
        after = all_cache_stats()["embedding"]
        after_plan = all_cache_stats()["plan"]
        assert service.stats()["groups_executed"] == 4
        assert (after["hits"] + after["misses"]) - (before["hits"] + before["misses"]) == len(fleet)
        assert after_plan["misses"] - before_plan["misses"] == 1
        assert after_plan["hits"] - before_plan["hits"] == 3


class TestBatchedEngineExecution:
    def test_batch_execution_uses_the_batched_stabilizer_path(self):
        # The single shared execution rides the PR-1 batched engine: the
        # noisy run reports a non-scalar method for a Clifford circuit.
        circuit = QuantumCircuit(3, 3, name="cliff")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        handles = service.submit_batch([circuit.copy() for _ in range(4)], 0.9, shots=256)
        service.process()
        assert all(handle.done for handle in handles)
        assert sum(handles[0].result().counts.values()) == 256
