"""Request/response dataclasses, the QRIO facade shims and CloudSession."""

import pytest

from repro import QRIO, JobRequirements, JobSpec, QRIOService
from repro.backends import three_device_testbed
from repro.circuits import ghz
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.policies import resolve_policy
from repro.service import JobState
from repro.utils.exceptions import CloudError, ClusterError, ServiceError
from repro.workloads.arrivals import JobRequest


class TestRequirementsValidation:
    def test_defaults_to_fidelity_one(self):
        requirements = JobRequirements()
        assert requirements.strategy == "fidelity"
        assert requirements.effective_fidelity_threshold == 1.0

    def test_fidelity_and_topology_are_mutually_exclusive(self):
        with pytest.raises(ServiceError):
            JobRequirements(fidelity_threshold=0.9, topology_edges=((0, 1),))

    def test_topology_edges_are_canonicalised(self):
        requirements = JobRequirements(topology_edges=((2, 1), (1, 0)))
        assert requirements.topology_edges == ((0, 1), (1, 2))
        assert requirements.strategy == "topology"

    def test_self_edges_rejected(self):
        with pytest.raises(ServiceError):
            JobRequirements(topology_edges=((1, 1),))

    def test_out_of_range_edges_rejected_at_spec_level(self):
        with pytest.raises(ServiceError):
            JobSpec(circuit=ghz(3), requirements=JobRequirements(topology_edges=((0, 5),)))

    def test_dedup_key_ignores_name_and_image(self):
        a = JobSpec(circuit=ghz(3), shots=64, name="a", image_name="img/a")
        b = JobSpec(circuit=ghz(3), shots=64, name="b", image_name="img/b")
        assert a.dedup_key() == b.dedup_key()

    def test_requirements_shorthand_accepts_float(self):
        service = QRIOService(three_device_testbed(), seed=3)
        handle = service.submit(ghz(3), 0.75, shots=32)
        assert handle.spec.requirements.fidelity_threshold == 0.75
        with pytest.raises(ServiceError):
            service.submit(ghz(3), "not-requirements")


class TestFacadeShims:
    def test_qrio_submit_returns_service_handle(self):
        qrio = QRIO(cluster_name="facade-svc", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        handle = qrio.submit(ghz(3), 0.8, shots=32)
        assert handle.state == JobState.QUEUED
        assert handle.result().device is not None

    def test_qrio_submit_batch_dedups(self):
        qrio = QRIO(cluster_name="facade-batch", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        handles = qrio.submit_batch([ghz(3) for _ in range(6)], 0.8, shots=32)
        qrio.service().process()
        assert qrio.service().stats()["groups_executed"] == 1
        assert all(handle.done for handle in handles)

    def test_submit_and_run_still_returns_job_outcome(self):
        qrio = QRIO(cluster_name="facade-shim", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        circuit = ghz(3)
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name="shim-job",
                image_name="qrio/shim-job",
                num_qubits=circuit.num_qubits,
                shots=32,
            )
            .request_fidelity(0.8)
        )
        outcome = qrio.submit_and_run(form)
        assert outcome.succeeded
        assert outcome.job.name == "shim-job"
        assert outcome.device is not None
        assert outcome.result is not None
        # The ranking data of the MATCHING stage survives the shim.
        assert outcome.num_filtered == 3
        assert len(outcome.scores) == 3
        # The job also shows up as a service handle with a full lifecycle.
        handle = qrio.service().job("shim-job")
        assert handle.state == JobState.DONE

    def test_submit_and_run_with_no_devices_is_unschedulable_not_an_error(self):
        qrio = QRIO(cluster_name="facade-empty", canary_shots=64, seed=9)
        circuit = ghz(3)
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name="empty-fleet-job",
                image_name="qrio/empty-fleet-job",
                num_qubits=circuit.num_qubits,
                shots=32,
            )
            .request_fidelity(0.8)
        )
        outcome = qrio.submit_and_run(form)
        assert not outcome.succeeded
        assert outcome.device is None

    def test_service_fleet_tracks_later_device_registrations(self):
        qrio = QRIO(cluster_name="facade-grow", canary_shots=64, seed=9)
        service = qrio.service()
        assert service.fleet == []
        qrio.register_devices(three_device_testbed())
        assert len(service.fleet) == 3
        assert service.submit(ghz(3), 0.8, shots=32).result().device is not None

    def test_topology_wider_than_circuit_via_num_qubits_override(self):
        # The legacy form accepts a topology wider than the circuit when the
        # user's num_qubits request covers it; the shim must keep doing so.
        qrio = QRIO(cluster_name="facade-wide-topo", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed(num_qubits=8))
        circuit = ghz(2)
        canvas = qrio.new_topology_canvas(3)
        canvas.draw_edge(0, 2)
        canvas.draw_edge(1, 2)
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name="wide-topo-job",
                image_name="qrio/wide-topo-job",
                num_qubits=3,
                shots=32,
            )
            .request_topology(canvas)
        )
        outcome = qrio.submit_and_run(form)
        assert outcome.succeeded

    def test_submit_and_run_duplicate_name_still_raises(self):
        # Legacy behaviour: a clashing active job name raised ClusterError;
        # the shim re-raises the engine's original exception instead of
        # returning an outcome describing the pre-existing job.
        qrio = QRIO(cluster_name="facade-dup", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        qrio.submit_fidelity_job(ghz(2), 0.9, job_name="dup-job", shots=32)
        form = (
            qrio.new_submission_form()
            .choose_circuit(ghz(3))
            .set_job_details(
                job_name="dup-job",
                image_name="qrio/dup-job",
                num_qubits=3,
                shots=32,
            )
            .request_fidelity(0.8)
        )
        with pytest.raises(ClusterError, match="already active"):
            qrio.submit_and_run(form)

    def test_submit_and_run_unschedulable_keeps_legacy_shape(self):
        qrio = QRIO(cluster_name="facade-unsched", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        circuit = ghz(3)
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name="unsched-job",
                image_name="qrio/unsched-job",
                num_qubits=circuit.num_qubits,
                shots=32,
            )
            .set_device_characteristics(max_avg_two_qubit_error=1e-6)
            .request_fidelity(0.8)
        )
        outcome = qrio.submit_and_run(form)
        assert not outcome.succeeded
        assert outcome.device is None
        assert outcome.result is None
        assert outcome.job.phase.value == "Unschedulable"


class TestCloudSessionAndErrors:
    def _request(self, index, arrival_time):
        return JobRequest(
            index=index,
            arrival_time=arrival_time,
            workload_key=f"job{index}",
            circuit=ghz(3),
            strategy="fidelity",
            fidelity_threshold=0.8,
            shots=32,
            user="tester",
        )

    def test_session_matches_trace_run(self):
        fleet = three_device_testbed()
        trace = [self._request(index, float(index)) for index in range(6)]
        config = CloudSimulationConfig(fidelity_report="esp", seed=3)
        run_result = CloudSimulator(fleet, resolve_policy("least-loaded"), config=config).run(trace)
        session = CloudSimulator(fleet, resolve_policy("least-loaded"), config=config).open_session()
        for request in trace:
            session.submit(request)
        incremental = session.result()
        assert [r.device for r in incremental.records] == [r.device for r in run_result.records]
        assert incremental.mean_wait() == run_result.mean_wait()

    def test_session_rejects_out_of_order_arrivals(self):
        session = CloudSimulator(three_device_testbed(), resolve_policy("least-loaded")).open_session()
        session.submit(self._request(0, 10.0))
        with pytest.raises(CloudError):
            session.submit(self._request(1, 5.0))

    def test_cloud_error_is_a_cluster_error(self):
        # Back-compat: historical `except ClusterError` handlers keep working.
        assert issubclass(CloudError, ClusterError)
        with pytest.raises(ClusterError):
            CloudSimulationConfig(fidelity_report="bogus")
        with pytest.raises(CloudError):
            CloudSimulationConfig(execution_shots=0)
