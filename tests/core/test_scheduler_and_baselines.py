"""Tests for the QRIO filter plugins, the scheduling cycle and the baseline rankings."""

import pytest

from repro.backends import line_topology, uniform_error_device
from repro.circuits import ghz
from repro.cluster import ClusterState, DeviceConstraints, JobSpec, ResourceRequest
from repro.cluster import Node
from repro.cluster.job import Job
from repro.control.scheduler import ClassicalResourceFilter
from repro.control.visualizer import MetaServerPayload
from repro.core import (
    DeviceCharacteristicsFilter,
    MetaServer,
    OraclePlacementPolicy,
    QRIOScheduler,
    QubitCountFilter,
)
from repro.policies import RandomPlacementPolicy
from repro.qasm import dump_qasm


def _device(name, qubits, error):
    return uniform_error_device(name, line_topology(qubits), qubits, two_qubit_error=error,
                                one_qubit_error=error / 10, readout_error=0.02)


@pytest.fixture
def cluster_with_meta():
    cluster = ClusterState("sched-test")
    devices = [
        _device("good", 8, 0.02),
        _device("medium", 8, 0.15),
        _device("bad", 8, 0.45),
        _device("tiny", 2, 0.01),
    ]
    cluster.register_backends(devices)
    meta = MetaServer(canary_shots=64, seed=8)
    meta.register_backends(devices)
    return cluster, meta


def _spec(name="sched-job", qubits=4, constraints=None, fidelity=1.0):
    return JobSpec(
        name=name,
        image=f"qrio/{name}",
        circuit_qasm=dump_qasm(ghz(qubits)),
        resources=ResourceRequest(qubits=qubits),
        constraints=constraints or DeviceConstraints(),
        strategy="fidelity",
        metadata={"fidelity_threshold": fidelity},
    )


class TestFilterPlugins:
    def test_qubit_count_filter(self):
        node = Node(_device("f1", 3, 0.1))
        job = Job(spec=_spec(qubits=4))
        feasible, reason = QubitCountFilter().filter(job, node)
        assert not feasible and "qubits" in reason

    def test_device_characteristics_filter_two_qubit_error(self):
        node = Node(_device("f2", 8, 0.3))
        job = Job(spec=_spec(constraints=DeviceConstraints(max_avg_two_qubit_error=0.1)))
        feasible, _ = DeviceCharacteristicsFilter().filter(job, node)
        assert not feasible
        lax_job = Job(spec=_spec(name="lax", constraints=DeviceConstraints(max_avg_two_qubit_error=0.5)))
        assert DeviceCharacteristicsFilter().filter(lax_job, node)[0]

    def test_device_characteristics_filter_t1_bound(self):
        node = Node(_device("f3", 8, 0.1))
        job = Job(spec=_spec(constraints=DeviceConstraints(min_avg_t1=1e9)))
        assert not DeviceCharacteristicsFilter().filter(job, node)[0]

    def test_classical_resource_filter(self):
        node = Node(_device("f4", 8, 0.1))
        spec = _spec()
        spec.resources.cpu_millicores = 10**9
        job = Job(spec=spec)
        assert not ClassicalResourceFilter().filter(job, node)[0]


class TestQRIOScheduler:
    def test_schedules_on_best_scoring_feasible_node(self, cluster_with_meta):
        cluster, meta = cluster_with_meta
        scheduler = QRIOScheduler(cluster, meta)
        meta.upload_job_metadata(MetaServerPayload(
            job_name="sched-job", strategy="fidelity", fidelity_threshold=1.0,
            circuit_qasm=dump_qasm(ghz(4)),
        ))
        job = cluster.submit_job(_spec())
        decision = scheduler.schedule(job)
        assert decision.scheduled
        assert decision.node_name == "node-good"
        # The tiny device must have been filtered before scoring.
        assert "tiny" not in decision.scores
        assert set(decision.scores) == {"good", "medium", "bad"}

    def test_tight_constraints_leave_no_device(self, cluster_with_meta):
        cluster, meta = cluster_with_meta
        scheduler = QRIOScheduler(cluster, meta)
        meta.upload_job_metadata(MetaServerPayload(
            job_name="strict", strategy="fidelity", fidelity_threshold=1.0,
            circuit_qasm=dump_qasm(ghz(4)),
        ))
        job = cluster.submit_job(_spec(
            name="strict",
            constraints=DeviceConstraints(max_avg_two_qubit_error=0.001),
        ))
        decision = scheduler.schedule(job)
        assert not decision.scheduled
        assert decision.filter_report.num_feasible == 0


def _submit(cluster, meta, name, qubits=4):
    """Upload a fidelity job's metadata and submit it to the cluster."""
    meta.upload_job_metadata(MetaServerPayload(
        job_name=name, strategy="fidelity", fidelity_threshold=1.0, circuit_qasm=dump_qasm(ghz(qubits)),
    ))
    return cluster.submit_job(_spec(name=name, qubits=qubits))


class TestBaselines:
    def test_random_scheduler_only_picks_feasible_nodes(self, cluster_with_meta):
        cluster, meta = cluster_with_meta
        scheduler, policy = QRIOScheduler(cluster, meta), RandomPlacementPolicy(seed=4)
        picks = set()
        for index in range(6):
            job = _submit(cluster, meta, f"rand-{index}")
            decision = scheduler.schedule(job, policy, bind=False)
            picks.add(decision.node_name)
        assert "node-tiny" not in picks
        assert picks <= {"node-good", "node-medium", "node-bad"}

    def test_random_scheduler_varies_choice(self, cluster_with_meta):
        cluster, meta = cluster_with_meta
        scheduler, policy = QRIOScheduler(cluster, meta), RandomPlacementPolicy(seed=4)
        picks = []
        for index in range(10):
            job = _submit(cluster, meta, f"randx-{index}")
            picks.append(scheduler.schedule(job, policy, bind=False).node_name)
        assert len(set(picks)) > 1

    def test_oracle_scheduler_picks_lowest_noise_device(self, cluster_with_meta):
        cluster, meta = cluster_with_meta
        policy = OraclePlacementPolicy(shots=128, seed=5)
        job = _submit(cluster, meta, "oracle-job")
        decision = QRIOScheduler(cluster, meta).schedule(job, policy, bind=False)
        assert decision.node_name == "node-good"
        fidelity = policy.known_fidelity("oracle-job", "good")
        assert fidelity is not None and fidelity > 0.5
