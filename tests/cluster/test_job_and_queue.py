"""Tests for job specifications and the job lifecycle."""

import pytest

from repro.cluster import DeviceConstraints, Job, JobPhase, JobSpec, ResourceRequest
from repro.qasm import dump_qasm
from repro.circuits import ghz
from repro.simulators import SimulationResult
from repro.utils.exceptions import ClusterError

QASM = dump_qasm(ghz(2))


def make_spec(name="job", strategy="fidelity", qubits=2):
    return JobSpec(
        name=name,
        image=f"qrio/{name}",
        circuit_qasm=QASM,
        resources=ResourceRequest(qubits=qubits),
        strategy=strategy,
    )


class TestJobSpec:
    def test_manifest_structure(self):
        manifest = make_spec().to_manifest()
        assert manifest["kind"] == "Job"
        container = manifest["spec"]["template"]["spec"]["containers"][0]
        assert container["resources"]["requests"]["qrio.io/qubits"] == "2"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ClusterError):
            make_spec(strategy="vibes")

    def test_empty_circuit_rejected(self):
        with pytest.raises(ClusterError):
            JobSpec(name="x", image="img", circuit_qasm="   ")

    def test_constraints_unconstrained(self):
        assert DeviceConstraints().is_unconstrained()
        assert not DeviceConstraints(max_avg_two_qubit_error=0.1).is_unconstrained()


class TestJobLifecycle:
    def test_happy_path(self):
        job = Job(spec=make_spec())
        job.mark_scheduled("node-a", score=0.5)
        job.mark_running()
        job.mark_succeeded(SimulationResult(counts={"00": 10}, shots=10))
        assert job.phase == JobPhase.SUCCEEDED
        assert job.is_finished()
        assert any("Scheduled" in line for line in job.logs)

    def test_cannot_run_before_scheduling(self):
        job = Job(spec=make_spec())
        with pytest.raises(ClusterError):
            job.mark_running()

    def test_cannot_schedule_twice(self):
        job = Job(spec=make_spec())
        job.mark_scheduled("node-a")
        with pytest.raises(ClusterError):
            job.mark_scheduled("node-b")

    def test_unschedulable_then_reschedulable(self):
        job = Job(spec=make_spec())
        job.mark_unschedulable("no nodes")
        assert job.phase == JobPhase.UNSCHEDULABLE
        job.mark_scheduled("node-a")
        assert job.phase == JobPhase.SCHEDULED

    def test_failure_records_reason(self):
        job = Job(spec=make_spec())
        job.mark_scheduled("node-a")
        job.mark_running()
        job.mark_failed("backend exploded")
        assert job.phase == JobPhase.FAILED
        assert job.failure_reason == "backend exploded"

    def test_describe_fields(self):
        description = Job(spec=make_spec()).describe()
        assert {"name", "phase", "node", "strategy"} <= set(description)

