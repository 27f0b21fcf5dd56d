"""Tests for the master server and the QRIO orchestrator facade."""

import pytest

from repro.backends import generate_fleet, line_topology, three_device_testbed, uniform_error_device
from repro.circuits import bernstein_vazirani, ghz
from repro.cluster import ClusterState
from repro.cluster import JobPhase
from repro.control.requirements import UserRequirements
from repro.core import QRIO, MasterServer, MetaServer
from repro.qasm import dump_qasm, parse_qasm
from repro.service import JobRequirements
from repro.utils.exceptions import ClusterError, MasterServerError


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
        image = server.containerize(requirements, ghz(3))
        assert server.registry.exists(image.reference)
        assert image.reference == "qrio/ms-job:latest"

    def test_submit_creates_pending_job_with_manifest(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job2", image_name="qrio/ms-job2",
                                        num_qubits=3, fidelity_threshold=0.9)
        submitted = server.submit(requirements, ghz(3))
        assert submitted.job.phase == JobPhase.PENDING
        assert submitted.manifest["metadata"]["name"] == "ms-job2"
        assert cluster.job("ms-job2") is submitted.job
        # One dump: the manifest carries the image's QASM file.
        assert submitted.job.spec.circuit_qasm == submitted.image.file("ms-job2.qasm") == dump_qasm(ghz(3))

    def test_execute_unscheduled_job_rejected(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job3", image_name="qrio/ms-job3",
                                        num_qubits=3, fidelity_threshold=0.9)
        server.submit(requirements, ghz(3))
        with pytest.raises(MasterServerError, match="has not been scheduled"):
            server.execute_bound_job("ms-job3", plan=None)  # rejected before the plan is read

    def test_logs_placeholder_before_completion(self):
        cluster = ClusterState()
        server = MasterServer(cluster)
        requirements = UserRequirements(job_name="ms-job4", image_name="qrio/ms-job4",
                                        num_qubits=3, fidelity_threshold=0.9)
        server.submit(requirements, ghz(3))
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
        outcomes = orchestrator.drain_queue()
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


def _submission_state(qrio):
    """What a submission writes: the metadata row, the image registry and the cluster jobs."""
    metadata = qrio.meta_server.job_metadata("dup-job")
    registry = qrio.master_server.registry
    return (
        metadata.describe(),
        metadata.circuit,
        metadata.circuit.name,
        {reference: registry.pull(reference).files for reference in registry.references()},
        [(job.name, job.phase, job.spec.circuit_qasm, job.spec.image) for job in qrio.cluster.jobs()],
    )


class TestRejectedSubmission:
    """A submission rejected for its name leaves the pending job's state untouched."""

    @pytest.mark.parametrize("route", ["submit_form", "submit_and_run", "submit"])
    def test_duplicate_active_name_leaves_no_trace(self, orchestrator, route):
        orchestrator.submit_fidelity_job(ghz(2), 0.9, job_name="dup-job")
        before = _submission_state(orchestrator)
        if route == "submit":
            handle = orchestrator.submit(ghz(4), JobRequirements(fidelity_threshold=0.5), name="dup-job")
            handle.wait()
            assert handle.failed and isinstance(handle.exception, ClusterError)
        else:
            form = (
                orchestrator.new_submission_form()
                .choose_circuit(ghz(4))
                .set_job_details("dup-job", "qrio/dup-job", num_qubits=4)
                .request_fidelity(0.5)
            )
            with pytest.raises(ClusterError):
                getattr(orchestrator, route)(form)
        assert _submission_state(orchestrator) == before
        # The pending job still runs against its own circuit.
        outcome = orchestrator.run_job("dup-job")
        assert outcome.succeeded and outcome.job.transpiled.num_clbits == 2


class TestFig2Trail:
    """Cold, warm and form-submitted runs leave the Fig. 2 logs and events in order."""

    COLD_LOGS = ("Image ", "Job manifest created", "Scheduled on node", "Container started",
                 "Transpiled to ", "Execution finished")
    WARM_LOGS = ("Image ", "Job manifest created", "Scheduled on node", "Container started",
                 "Replayed cached execution plan", "Execution finished")
    COLD_EVENTS = ["JobSubmitted", "Filtered", "Ranked", "Bound", "Pulled", "Executed", "Released"]
    WARM_EVENTS = ["JobSubmitted", "Bound", "PlanScheduled", "Pulled", "Executed", "Released"]

    @staticmethod
    def _form(qrio, name):
        return (
            qrio.new_submission_form()
            .choose_circuit(ghz(3))
            .set_job_details(name, f"qrio/{name}", num_qubits=3, shots=64)
            .request_fidelity(0.9)
        )

    def test_cold_warm_and_legacy_runs(self, orchestrator):
        orchestrator.submit_and_run(self._form(orchestrator, "trail-cold"))
        orchestrator.submit_and_run(self._form(orchestrator, "trail-warm"))
        orchestrator.submit_form(self._form(orchestrator, "trail-legacy"))
        orchestrator.run_job("trail-legacy")
        # A form-submitted job runs on the engine's MATCHING/RUNNING pair, so
        # it replays the plan the cold job stored.
        for name, logs, events in (
            ("trail-cold", self.COLD_LOGS, self.COLD_EVENTS),
            ("trail-warm", self.WARM_LOGS, self.WARM_EVENTS),
            ("trail-legacy", self.WARM_LOGS, self.WARM_EVENTS),
        ):
            lines = orchestrator.job_logs(name)
            assert len(lines) == len(logs) and all(map(str.startswith, lines, logs)), lines
            kinds = [event.kind for event in orchestrator.cluster.events.all() if event.subject == name]
            assert kinds == events

    def test_text_upload_is_normalised_in_the_manifest_and_image(self, orchestrator):
        # The master server dumps the parsed circuit once; the uploaded
        # text's comments and layout are not kept.
        text = "// user upload\n" + dump_qasm(ghz(3)).replace(";\n", ";  // step\n", 2)
        form = (
            orchestrator.new_submission_form()
            .choose_circuit(text)
            .set_job_details("trail-text", "qrio/trail-text", num_qubits=3, shots=64)
            .request_fidelity(0.9)
        )
        submitted = orchestrator.submit_form(form)
        normalised = dump_qasm(parse_qasm(text))
        assert normalised != text
        assert submitted.job.spec.circuit_qasm == submitted.image.file("trail-text.qasm") == normalised
        assert orchestrator.run_job("trail-text").succeeded
