"""One scheduling cycle places every cluster job: filters → policy.decide → bind.

The orchestrator engine places a job the same way on the native
route (the meta server's per-job ranking) and on a registry-policy route, so
both routes reject the same impossible requests, never bind a device the
ranking policy filtered out, and key their scores by device name.
"""

import pytest

from repro.backends import generate_fleet, line_topology, uniform_error_device
from repro.circuits import ghz
from repro.cluster import ClusterState, JobPhase, JobSpec as ClusterJobSpec, ResourceRequest
from repro.control.visualizer import MetaServerPayload
from repro.core import MetaServer, QRIOScheduler
from repro.qasm import dump_qasm
from repro.service import JobRequirements, JobSpec, OrchestratorEngine, QRIOService
from repro.utils.exceptions import ServiceError


def _three_qubit_lines():
    return [
        uniform_error_device(name, line_topology(3), 3, two_qubit_error=0.05) for name in ("a", "b")
    ]


@pytest.mark.parametrize("policy", [None, "threshold-fidelity"], ids=["native", "policy"])
def test_submit_rejects_a_qubit_request_below_the_circuit_width(policy):
    service = QRIOService(_three_qubit_lines(), OrchestratorEngine(canary_shots=32, seed=1))
    requirements = JobRequirements(num_qubits=2, policy=policy)
    with pytest.raises(ServiceError, match="below the 5 qubits"):
        service.submit(ghz(5), requirements, shots=32)
    service.close()


def test_cycle_never_binds_a_device_its_policy_filtered_out():
    fleet = _three_qubit_lines()
    cluster = ClusterState("probe")
    cluster.register_backends(fleet)
    meta = MetaServer(canary_shots=32, seed=1)
    meta.register_backends(fleet)
    qasm = dump_qasm(ghz(5))
    meta.upload_job_metadata(
        MetaServerPayload(job_name="wide", strategy="fidelity", fidelity_threshold=1.0, circuit_qasm=qasm)
    )
    # The node filters pass both devices: the job asks for only 2 qubits.
    job = cluster.submit_job(
        ClusterJobSpec(name="wide", image="qrio/wide", circuit_qasm=qasm, resources=ResourceRequest(qubits=2))
    )
    decision = QRIOScheduler(cluster, meta).schedule(job)
    assert decision.filter_report.num_feasible == 2
    assert not decision.scheduled and decision.score is None and decision.scores == {}
    assert job.phase == JobPhase.UNSCHEDULABLE
    policy, _ = meta.ranking("wide")
    assert set(decision.placement.rejected) == {"a", "b"}
    for reason in decision.placement.rejected.values():
        assert reason == f"{policy.name}: device has 3 qubits, job needs 5"


@pytest.mark.parametrize("policy", [None, "round-robin"], ids=["native", "round-robin"])
def test_scores_are_keyed_by_device_name(policy):
    fleet = generate_fleet(limit=4, seed=3)
    names = {backend.name for backend in fleet}
    instance = OrchestratorEngine(canary_shots=32, seed=1)
    service = QRIOService(fleet, instance)
    requirements = JobRequirements(fidelity_threshold=0.9, policy=policy)
    handle = service.submit(ghz(3), requirements, shots=32)
    result = handle.result()
    scores = handle.status().detail["scores"]
    assert scores and set(scores) <= names and result.device in scores
    job = instance.cluster.job(handle.name)
    assert job.score == scores[result.device] == result.score
    plan = instance._plans.get(JobSpec(ghz(3), requirements, shots=32).dedup_key())
    if policy is None:
        assert plan.scores == scores and plan.device == result.device
    else:
        assert plan is None  # policy-routed jobs are never stored
    service.close()
