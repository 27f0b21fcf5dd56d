"""The three ExecutionEngine adapters behave uniformly behind one protocol."""

import dataclasses

import pytest

from repro.backends import line_topology, three_device_testbed, uniform_error_device
from repro.circuits import QuantumCircuit, bernstein_vazirani, ghz
from repro.cloud.simulation import CloudSimulationConfig
from repro.service import (
    CloudEngine,
    ClusterEngine,
    JobRequirements,
    JobState,
    OrchestratorEngine,
    QRIOService,
)
from repro.utils.exceptions import ServiceError


def _engines():
    return [
        OrchestratorEngine(seed=13, canary_shots=64),
        ClusterEngine(seed=13, canary_shots=64),
        CloudEngine(policy="fidelity:seed=13"),
    ]


class TestProtocolUniformity:
    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_submit_process_result_works_on_every_engine(self, engine):
        service = QRIOService(three_device_testbed(), engine)
        handle = service.submit(ghz(3), 0.8, shots=64)
        result = handle.result()
        assert result.engine == engine.name
        assert result.device is not None
        assert result.shots == 64
        assert [event.state for event in handle.events()] == [
            JobState.QUEUED,
            JobState.MATCHING,
            JobState.RUNNING,
            JobState.DONE,
        ]

    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_mixed_stream_of_distinct_jobs(self, engine):
        service = QRIOService(three_device_testbed(), engine)
        handles = [
            service.submit(ghz(3), 0.9, shots=32),
            service.submit(bernstein_vazirani("101"), 0.7, shots=32),
        ]
        service.process()
        assert all(handle.done for handle in handles)

    def test_unattached_engines(self):
        # The cluster engine builds its Fig. 2 parts up front; attach only
        # registers the fleet.  The cloud engine has no session until then.
        assert OrchestratorEngine().fleet() == []
        assert ClusterEngine().cluster.backends() == []
        with pytest.raises(ServiceError):
            CloudEngine().session


class TestOrchestratorEngine:
    def test_sampling_results_carry_counts(self):
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=13, canary_shots=64))
        result = service.submit(ghz(3), 0.8, shots=128).result()
        assert sum(result.counts.values()) == 128
        assert result.score is not None

    def test_jobs_are_visible_in_the_wrapped_cluster(self):
        engine = OrchestratorEngine(seed=13, canary_shots=64)
        service = QRIOService(three_device_testbed(), engine)
        handle = service.submit(ghz(3), 0.8, shots=32, name="visible-job")
        handle.result()
        job = engine.cluster.job("visible-job")
        assert job.phase.value == "Succeeded"


class TestClusterEngine:
    def test_topology_requirement_reports_layout_quality_score(self):
        service = QRIOService(three_device_testbed(num_qubits=8), ClusterEngine(seed=13, canary_shots=64))
        requirements = JobRequirements(topology_edges=((0, 1), (1, 2), (2, 3)))
        result = service.submit(ghz(4), requirements, shots=32).result()
        assert result.score is not None
        assert result.device is not None

    def test_device_constraint_filters_the_fleet(self):
        service = QRIOService(three_device_testbed(), ClusterEngine(seed=13, canary_shots=64))
        handle = service.submit(
            ghz(3), JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=1e-6), shots=32
        )
        handle.wait()
        assert handle.failed


class TestDriftedDeviceBounds:
    """A calibration jump past a job's bound removes the device on every engine."""

    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_jump_past_the_two_qubit_bound_leaves_no_feasible_device(self, engine):
        device = uniform_error_device("drifting_q5", line_topology(5), 5, two_qubit_error=0.01)
        service = QRIOService([device], engine)
        properties = device.properties
        drifted = dataclasses.replace(
            properties, two_qubit_error={edge: 0.06 for edge in properties.two_qubit_error}
        )
        engine.apply_calibration(device.name, drifted)
        handle = service.submit(
            ghz(3), JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=0.05), shots=32
        )
        status = handle.wait()
        assert handle.failed
        assert status.device is None
        assert status.detail["num_feasible"] == 0


def _sampling_engines():
    return [OrchestratorEngine(seed=13, canary_shots=64), ClusterEngine(seed=13, canary_shots=64)]


class TestOutcomeWidth:
    """Outcomes are as wide as the declared classical register."""

    @pytest.mark.parametrize("engine", _sampling_engines(), ids=lambda e: e.name)
    def test_narrow_register_gives_narrow_outcomes(self, engine):
        circuit = QuantumCircuit(6, 3, name="six_on_three")
        circuit.h(0).cx(0, 1).cx(1, 2).x(3).cx(3, 4).cx(4, 5)
        for qubit in range(3):
            circuit.measure(qubit, qubit)
        service = QRIOService(three_device_testbed(num_qubits=8), engine)
        result = service.submit(circuit, 0.5, shots=64).result()
        assert {len(bits) for bits in result.counts} == {3}

    @pytest.mark.parametrize("engine", _sampling_engines(), ids=lambda e: e.name)
    def test_unmeasured_circuit_without_clbits_is_measured_in_full(self, engine):
        circuit = QuantumCircuit(3, 0, name="no_clbits")
        circuit.h(0).cx(0, 1).cx(1, 2)
        service = QRIOService(three_device_testbed(), engine)
        handle = service.submit(circuit, 0.5, shots=64)
        handle.wait()
        assert handle.state == JobState.DONE, handle.status().error
        assert {len(bits) for bits in handle.result().counts} == {3}


class TestCloudEngine:
    def test_reports_fidelity_and_queueing_detail_instead_of_counts(self):
        service = QRIOService(three_device_testbed(), CloudEngine(policy="fidelity:seed=13"))
        result = service.submit(ghz(3), 0.8, shots=64).result()
        assert result.counts == {}
        assert result.fidelity is not None and 0.0 <= result.fidelity <= 1.0
        assert "wait_time_s" in result.detail
        assert "turnaround_time_s" in result.detail

    def test_arrivals_accumulate_in_the_simulation_session(self):
        engine = CloudEngine(policy="round-robin", inter_arrival_s=10.0)
        service = QRIOService(three_device_testbed(), engine)
        for index in range(4):
            service.submit(ghz(3), 0.8, shots=32).result()
        simulation = engine.simulation_result()
        assert len(simulation.records) == 4
        # Round-robin spreads consecutive arrivals over the fleet.
        assert len(simulation.jobs_per_device()) > 1

    def test_fidelity_report_none_mode(self):
        engine = CloudEngine(config=CloudSimulationConfig(fidelity_report="none"))
        service = QRIOService(three_device_testbed(), engine)
        result = service.submit(ghz(3), 0.8, shots=32).result()
        assert result.fidelity is None

    def test_requirements_are_enforced_like_the_other_engines(self):
        # The unified-API contract: a spec that is infeasible on the
        # orchestrator/cluster engines must be infeasible here too.
        service = QRIOService(three_device_testbed(), CloudEngine())
        oversized = service.submit(ghz(3), JobRequirements(fidelity_threshold=0.5, num_qubits=1000))
        constrained = service.submit(
            ghz(3), JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=1e-9)
        )
        service.process()
        assert oversized.failed
        assert constrained.failed

    def test_device_bounds_restrict_the_policy_choice(self):
        from repro.backends import generate_fleet

        fleet = generate_fleet(limit=6, seed=3)
        errors = {backend.name: backend.properties.average_two_qubit_error() for backend in fleet}
        threshold = sorted(errors.values())[len(errors) // 2]
        feasible = {name for name, error in errors.items() if error <= threshold}
        assert feasible and feasible != set(errors)  # the bound really splits the fleet
        service = QRIOService(fleet, CloudEngine(policy="round-robin"))
        requirements = JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=threshold)
        for _ in range(4):
            result = service.submit(ghz(3), requirements, shots=32).result()
            assert result.device in feasible

    def test_execute_mode_reuses_fidelity_cache_across_identical_jobs(self):
        engine = CloudEngine(
            config=CloudSimulationConfig(fidelity_report="execute", execution_shots=64, seed=3)
        )
        service = QRIOService(three_device_testbed(), engine)
        first = service.submit(ghz(3), 0.8, shots=32).result()
        second = service.submit(ghz(3), 0.8, shots=32).result()
        if first.device == second.device:
            assert first.fidelity == second.fidelity
