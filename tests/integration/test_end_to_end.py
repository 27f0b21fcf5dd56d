"""Integration tests: the full QRIO cycle of Fig. 2 against a generated fleet."""

import pytest

from repro import QRIO, generate_fleet
from repro.circuits import bernstein_vazirani, ghz
from repro.cluster import JobPhase
from repro.fidelity import achieved_fidelity
from repro.simulators import success_probability


@pytest.fixture(scope="module")
def qrio_with_fleet():
    qrio = QRIO(cluster_name="integration", canary_shots=128, seed=2024)
    qrio.register_devices(generate_fleet(limit=10, seed=6))
    return qrio


class TestFidelityWorkflow:
    def test_full_cycle_produces_logs_and_counts(self, qrio_with_fleet):
        qrio = qrio_with_fleet
        circuit = bernstein_vazirani("101")
        submitted = qrio.submit_fidelity_job(circuit, fidelity_threshold=1.0, job_name="it-bv", shots=256)
        outcome = qrio.run_job("it-bv")
        assert outcome.succeeded
        assert outcome.device is not None
        assert sum(outcome.result.counts.values()) == 256
        logs = qrio.job_logs("it-bv")
        assert any("Scheduled on node" in line for line in logs)
        assert any("Execution finished" in line for line in logs)
        # The recorded image exists in the registry and carries the QASM payload.
        image = qrio.master_server.registry.pull(submitted.job.spec.image)
        assert "OPENQASM" in image.file("it-bv.qasm")

    def test_qrio_choice_beats_the_worst_device(self, qrio_with_fleet):
        qrio = qrio_with_fleet
        circuit = ghz(4)
        qrio.submit_fidelity_job(circuit, fidelity_threshold=1.0, job_name="it-ghz", shots=256)
        outcome = qrio.run_job("it-ghz")
        chosen = next(b for b in qrio.devices() if b.name == outcome.device)
        feasible = [b for b in qrio.devices() if b.num_qubits >= circuit.num_qubits]
        worst = max(feasible, key=lambda b: b.properties.average_two_qubit_error())
        chosen_fidelity = achieved_fidelity(circuit, chosen, shots=256, seed=1)
        worst_fidelity = achieved_fidelity(circuit, worst, shots=256, seed=1)
        assert chosen_fidelity >= worst_fidelity

    def test_scores_cover_only_filtered_devices(self, qrio_with_fleet):
        qrio = qrio_with_fleet
        circuit = ghz(6)
        qrio.submit_fidelity_job(circuit, fidelity_threshold=1.0, job_name="it-filter", shots=64)
        outcome = qrio.run_job("it-filter")
        feasible_names = {b.name for b in qrio.devices() if b.num_qubits >= 6}
        assert set(outcome.scores) <= feasible_names


class TestTopologyWorkflow:
    def test_topology_job_selects_matching_device(self):
        from repro.backends import three_device_testbed

        qrio = QRIO(cluster_name="topology-it", seed=5)
        qrio.register_devices(three_device_testbed())
        submitted = qrio.submit_topology_job(
            ghz(10),
            topology_edges=[(i, i + 1) for i in range(9)] + [(9, 0)],  # a ring
            job_name="it-ring",
            shots=64,
        )
        outcome = qrio.run_job("it-ring")
        assert outcome.succeeded
        assert outcome.device == "device_ring"


class TestFailureModes:
    def test_unschedulable_job_does_not_execute(self):
        qrio = QRIO(cluster_name="failure-it", canary_shots=64, seed=1)
        qrio.register_devices(generate_fleet(limit=6, seed=2))
        qrio.submit_fidelity_job(ghz(3), fidelity_threshold=1.0, job_name="it-strict",
                                 max_avg_two_qubit_error=0.0001)
        outcome = qrio.run_job("it-strict")
        assert outcome.job.phase == JobPhase.UNSCHEDULABLE
        assert outcome.result is None

    def test_job_too_large_for_every_device_is_unschedulable(self):
        qrio = QRIO(cluster_name="too-big", canary_shots=64, seed=1)
        qrio.register_devices(generate_fleet(limit=6, seed=2))
        big_circuit = ghz(128)
        qrio.submit_fidelity_job(big_circuit, fidelity_threshold=0.5, job_name="it-too-big", shots=16)
        outcome = qrio.run_job("it-too-big")
        assert outcome.job.phase == JobPhase.UNSCHEDULABLE
