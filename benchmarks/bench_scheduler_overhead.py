"""Micro-benchmarks of the scheduler's classical overheads.

Use-case 1 of the paper argues that requirement-based filtering "will
considerably reduce classical pre-processing overheads" because only the
shortlisted devices are ranked.  These micro-benchmarks quantify that claim
for this implementation by timing (a) the filtering stage alone, (b) topology
scoring of a single device and (c) the end-to-end scheduling decision with
and without a tight filter, over the benchmark fleet.
"""

from __future__ import annotations

import pytest

from repro.circuits import ghz
from repro.cluster import ClusterState, DeviceConstraints, JobSpec, ResourceRequest
from repro.core import MetaServer, QRIOScheduler
from repro.core.visualizer import MetaServerPayload
from repro.policies import PlacementContext, TopologyPlacementPolicy
from repro.qasm import dump_qasm
from repro.workloads import default_topology


@pytest.fixture(scope="module")
def scheduling_setup(bench_fleet, bench_config):
    cluster = ClusterState("overhead-bench")
    cluster.register_backends(bench_fleet)
    meta = MetaServer(canary_shots=bench_config.shots, seed=bench_config.seed)
    meta.register_backends(bench_fleet)
    scheduler = QRIOScheduler(cluster, meta)
    return cluster, meta, scheduler


def _job_spec(name: str, constraints: DeviceConstraints) -> JobSpec:
    return JobSpec(
        name=name,
        image=f"qrio/{name}",
        circuit_qasm=dump_qasm(ghz(4)),
        resources=ResourceRequest(qubits=4),
        constraints=constraints,
        strategy="fidelity",
        metadata={"fidelity_threshold": 1.0},
    )


def test_overhead_filtering_stage(benchmark, scheduling_setup):
    """Time the pure filtering stage over the whole fleet."""
    cluster, _, scheduler = scheduling_setup
    job = cluster.submit_job(_job_spec("filter-overhead", DeviceConstraints(max_avg_two_qubit_error=0.3)))
    report = benchmark(scheduler.run_filters, job)
    print(f"\nFeasible devices after filtering: {report.num_feasible}/{len(cluster.nodes())}")
    assert report.num_feasible <= len(cluster.nodes())


def test_overhead_topology_scoring_single_device(benchmark, bench_fleet, bench_config):
    """Time one Mapomatic-style scoring call (one device, one topology request)."""
    topology = default_topology("heavy_square")
    ctx = PlacementContext(
        fleet=bench_fleet,
        strategy="topology",
        topology_edges=topology.edges,
        required_qubits=topology.num_qubits,
    )
    device = max(bench_fleet, key=lambda backend: backend.num_qubits)
    # A fresh policy per call: one policy memoizes its matches per device.
    score = benchmark(lambda: TopologyPlacementPolicy(seed=bench_config.seed).score(ctx, device))
    print(f"\nScore of '{device.name}' for the heavy-square request: {score:.3f}")
    assert score >= 0.0


def test_overhead_scheduling_with_tight_filter(benchmark, scheduling_setup, bench_config):
    """Time a full scheduling decision when filtering shrinks the candidate set.

    The meta-server score cache is cleared between rounds so every round pays
    the genuine ranking cost for the filtered devices.
    """
    cluster, meta, scheduler = scheduling_setup
    meta.upload_job_metadata(MetaServerPayload(
        job_name="tight-schedule",
        strategy="fidelity",
        fidelity_threshold=1.0,
        circuit_qasm=dump_qasm(ghz(4)),
    ))

    def schedule_once():
        meta.clear_job("tight-schedule")
        meta.upload_job_metadata(MetaServerPayload(
            job_name="tight-schedule",
            strategy="fidelity",
            fidelity_threshold=1.0,
            circuit_qasm=dump_qasm(ghz(4)),
        ))
        job = cluster.submit_job(_job_spec("tight-schedule", DeviceConstraints(max_avg_two_qubit_error=0.15)))
        decision = scheduler.schedule(job, bind=False)
        # Remove the job so the next round can resubmit it.
        cluster._jobs.pop("tight-schedule", None)
        return decision

    decision = benchmark.pedantic(schedule_once, rounds=3, iterations=1)
    print(f"\nTight filter left {decision.filter_report.num_feasible} devices; "
          f"chose {decision.node_name}")
    assert decision.filter_report.num_feasible <= len(cluster.nodes())
