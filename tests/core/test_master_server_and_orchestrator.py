"""Tests for the master server and the QRIO orchestrator facade."""

import pytest

from repro.backends import generate_fleet, line_topology, three_device_testbed, uniform_error_device
from repro.circuits import bernstein_vazirani, ghz
from repro.cluster import JobPhase
from repro.core import QRIO, MasterServer, MetaServer
from repro.core.requirements import UserRequirements
from repro.core.visualizer import MasterServerPayload
from repro.cluster import ClusterState
from repro.qasm import dump_qasm
from repro.utils.exceptions import MasterServerError


@pytest.fixture
def orchestrator():
    qrio = QRIO(cluster_name="test-qrio", canary_shots=64, seed=7)
    devices = [
        uniform_error_device("alpha", line_topology(8), 8, two_qubit_error=0.02,
                             one_qubit_error=0.005, readout_error=0.01),
        uniform_error_device("beta", line_topology(8), 8, two_qubit_error=0.3,
                             one_qubit_error=0.05, readout_error=0.08),
        uniform_error_device("gamma", line_topology(4), 4, two_qubit_error=0.1,
                             one_qubit_error=0.01, readout_error=0.02),
    ]
    qrio.register_devices(devices)
    return qrio


class TestMasterServer:
    def test_containerize_builds_and_pushes_image(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job", image_name="qrio/ms-job",
                                        num_qubits=3, fidelity_threshold=0.9)
        payload = MasterServerPayload(requirements=requirements, circuit_qasm=dump_qasm(ghz(3)))
        image = server.containerize(payload)
        assert server.registry.exists(image.reference)
        assert image.reference == "qrio/ms-job:latest"

    def test_submit_creates_pending_job_with_manifest(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job2", image_name="qrio/ms-job2",
                                        num_qubits=3, fidelity_threshold=0.9)
        payload = MasterServerPayload(requirements=requirements, circuit_qasm=dump_qasm(ghz(3)))
        submitted = server.submit(payload)
        assert submitted.job.phase == JobPhase.PENDING
        assert submitted.manifest["metadata"]["name"] == "ms-job2"
        assert cluster.job("ms-job2") is submitted.job

    def test_execute_unscheduled_job_rejected(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job3", image_name="qrio/ms-job3",
                                        num_qubits=3, fidelity_threshold=0.9)
        server.submit(MasterServerPayload(requirements=requirements, circuit_qasm=dump_qasm(ghz(3))))
        with pytest.raises(MasterServerError):
            server.execute_bound_job("ms-job3")

    def test_logs_placeholder_before_completion(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job4", image_name="qrio/ms-job4",
                                        num_qubits=3, fidelity_threshold=0.9)
        server.submit(MasterServerPayload(requirements=requirements, circuit_qasm=dump_qasm(ghz(3))))
        logs = server.job_logs("ms-job4")
        assert any("available once the job has finished" in line for line in logs)


class TestQRIOOrchestrator:
    def test_fidelity_job_end_to_end(self, orchestrator):
        submitted = orchestrator.submit_fidelity_job(ghz(4), fidelity_threshold=1.0, shots=256)
        outcome = orchestrator.run_job(submitted.job.name)
        assert outcome.succeeded
        assert outcome.device == "alpha"  # lowest-noise feasible device
        assert outcome.num_filtered == 3  # alpha, beta and the exactly-fitting gamma all pass
        assert sum(outcome.result.counts.values()) == 256
        logs = orchestrator.job_logs(submitted.job.name)
        assert any("Transpiled" in line for line in logs)

    def test_topology_job_end_to_end(self, orchestrator):
        submitted = orchestrator.submit_topology_job(
            ghz(4), topology_edges=[(0, 1), (1, 2), (2, 3)], job_name="topo-e2e", shots=128
        )
        outcome = orchestrator.run_job("topo-e2e")
        assert outcome.succeeded
        assert outcome.device in {"alpha", "beta", "gamma"}

    def test_unschedulable_job_reports_zero_filtered(self, orchestrator):
        submitted = orchestrator.submit_fidelity_job(
            ghz(3), fidelity_threshold=1.0, job_name="impossible",
            max_avg_two_qubit_error=0.0001,
        )
        outcome = orchestrator.run_job("impossible")
        assert not outcome.succeeded
        assert outcome.job.phase == JobPhase.UNSCHEDULABLE
        assert outcome.num_filtered == 0

    def test_dashboard_and_job_views(self, orchestrator):
        submitted = orchestrator.submit_fidelity_job(ghz(3), fidelity_threshold=0.9, job_name="view-job", shots=64)
        orchestrator.run_job("view-job")
        assert "alpha" in orchestrator.render_dashboard()
        job_view = orchestrator.render_job("view-job")
        assert "Succeeded" in job_view
        assert "Top measurement outcomes" in job_view

    def test_queue_drain_executes_all(self, orchestrator):
        for index, threshold in enumerate((0.5, 0.9)):
            form = (
                orchestrator.new_submission_form()
                .choose_circuit(ghz(3))
                .set_job_details(f"queued-{index}", f"qrio/queued-{index}", num_qubits=3, shots=64)
                .request_fidelity(threshold)
            )
            orchestrator.enqueue_form(form)
        outcomes = orchestrator.drain_queue(execute=True)
        assert len(outcomes) == 2
        assert all(outcome.succeeded for outcome in outcomes)

    def test_register_device_syncs_meta_server(self, orchestrator):
        new_device = uniform_error_device("delta", line_topology(5), 5, two_qubit_error=0.05)
        orchestrator.register_device(new_device)
        assert "delta" in orchestrator.meta_server.backend_names()
        assert any(backend.name == "delta" for backend in orchestrator.devices())

    def test_baseline_schedulers_constructible(self, orchestrator):
        submitted = orchestrator.submit_fidelity_job(ghz(3), fidelity_threshold=1.0, job_name="base-job", shots=64)
        job = orchestrator.cluster.job("base-job")
        random_decision = orchestrator.scheduler.schedule(job, orchestrator.random_scheduler(seed=3), bind=False)
        assert random_decision.scheduled
        oracle_decision = orchestrator.scheduler.schedule(
            job, orchestrator.oracle_scheduler(shots=64, seed=3), bind=False
        )
        assert oracle_decision.node_name == "node-alpha"
