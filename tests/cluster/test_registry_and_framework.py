"""Tests for the cluster state registry, the filter stage and the scheduling cycle."""

import pytest

from repro.backends import named_topology_device
from repro.circuits import ghz
from repro.cluster import (
    ClusterState,
    FilterPlugin,
    JobPhase,
    JobSpec,
    Node,
    ResourceRequest,
    run_filters,
)
from repro.core import MetaServer, QRIOScheduler
from repro.policies import PlacementContext, PlacementPolicy
from repro.qasm import dump_qasm
from repro.utils.exceptions import ClusterError, SchedulingError


class QubitsFilter(FilterPlugin):
    def filter(self, job, node):
        needed = job.spec.resources.qubits
        if node.backend.num_qubits < needed:
            return False, "too small"
        return True, "ok"


class SmallestDevicePolicy(PlacementPolicy):
    def score(self, ctx, device):
        return float(device.num_qubits)


def schedule(cluster, job, bind=True):
    """One scheduling cycle ranking by device size over the filter survivors."""
    scheduler = QRIOScheduler(cluster, MetaServer())
    return scheduler.schedule(
        job,
        SmallestDevicePolicy(),
        context=lambda fleet: PlacementContext(fleet=fleet, job_name=job.name),
        bind=bind,
    )


@pytest.fixture
def cluster():
    state = ClusterState("test-cluster")
    state.register_backend(named_topology_device("line", 4, name="dev4"))
    state.register_backend(named_topology_device("line", 8, name="dev8"))
    state.register_backend(named_topology_device("line", 16, name="dev16"))
    return state


def make_spec(name="job", qubits=2):
    return JobSpec(
        name=name,
        image=f"qrio/{name}",
        circuit_qasm=dump_qasm(ghz(2)),
        resources=ResourceRequest(qubits=qubits),
        strategy="fidelity",
    )


class TestClusterState:
    def test_register_and_lookup(self, cluster):
        assert len(cluster.nodes()) == 3
        assert cluster.node("node-dev8").backend.name == "dev8"

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.register_backend(named_topology_device("line", 4, name="dev4"))

    def test_remove_node(self, cluster):
        cluster.remove_node("node-dev4")
        assert len(cluster.nodes()) == 2

    def test_node_for_device_follows_register_and_remove(self, cluster):
        assert cluster.node_for_device("dev8") is cluster.node("node-dev8")
        assert cluster.node_for_device("nope") is None
        cluster.remove_node("node-dev8")
        assert cluster.node_for_device("dev8") is None
        node = cluster.register_node(Node(named_topology_device("line", 8, name="dev8"), name="rack-2"))
        assert cluster.node_for_device("dev8") is node

    def test_second_node_for_a_hosted_device_rejected(self, cluster):
        with pytest.raises(ClusterError, match="already hosted"):
            cluster.register_node(Node(named_topology_device("line", 4, name="dev4"), name="rack-2"))
        assert len(cluster.nodes()) == 3
        assert cluster.node_for_device("dev4") is cluster.node("node-dev4")

    def test_remove_node_with_bound_job_rejected(self, cluster):
        job = cluster.submit_job(make_spec())
        cluster.bind(job.name, "node-dev4")
        with pytest.raises(ClusterError):
            cluster.remove_node("node-dev4")

    def test_unknown_lookups_raise(self, cluster):
        with pytest.raises(ClusterError):
            cluster.node("nope")
        with pytest.raises(ClusterError):
            cluster.job("nope")

    def test_submit_and_bind_records_events(self, cluster):
        job = cluster.submit_job(make_spec("evt"))
        cluster.bind(job.name, "node-dev8", score=0.2)
        kinds = {event.kind for event in cluster.events.all()}
        assert {"NodeRegistered", "JobSubmitted", "Bound"} <= kinds
        assert job.phase == JobPhase.SCHEDULED

    def test_duplicate_active_job_rejected(self, cluster):
        cluster.submit_job(make_spec("dup"))
        with pytest.raises(ClusterError):
            cluster.submit_job(make_spec("dup"))

    def test_schedulable_nodes_excludes_cordoned(self, cluster):
        cluster.node("node-dev4").cordon()
        assert len(cluster.schedulable_nodes()) == 2

    def test_describe(self, cluster):
        description = cluster.describe()
        assert description["name"] == "test-cluster"
        assert len(description["nodes"]) == 3


class TestSchedulingFramework:
    def test_filter_and_score_selects_lowest(self, cluster):
        job = cluster.submit_job(make_spec("pick", qubits=6))
        decision = schedule(cluster, job)
        assert decision.scheduled
        assert decision.node_name == "node-dev8"  # smallest feasible device
        assert decision.filter_report.num_feasible == 2
        assert job.phase == JobPhase.SCHEDULED

    def test_no_feasible_node_marks_unschedulable(self, cluster):
        job = cluster.submit_job(make_spec("huge", qubits=100))
        decision = schedule(cluster, job)
        assert not decision.scheduled
        assert job.phase == JobPhase.UNSCHEDULABLE

    def test_schedule_without_binding(self, cluster):
        job = cluster.submit_job(make_spec("dry-run"))
        decision = schedule(cluster, job, bind=False)
        assert decision.scheduled
        assert job.phase == JobPhase.PENDING

    def test_scheduling_finished_job_rejected(self, cluster):
        job = cluster.submit_job(make_spec("once"))
        schedule(cluster, job)
        with pytest.raises(SchedulingError):
            schedule(cluster, job)

    def test_rejection_reasons_recorded(self, cluster):
        job = cluster.submit_job(make_spec("medium", qubits=6))
        report = run_filters(cluster, [QubitsFilter()], job)
        assert "node-dev4" in report.rejected
        assert "too small" in report.rejected["node-dev4"]
