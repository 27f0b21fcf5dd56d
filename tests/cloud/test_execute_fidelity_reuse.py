"""Why the cached and uncached ``execute`` fidelity means differ.

``BENCH_matching.json`` reports ``mean_fidelity_cached`` 0.781 against
``mean_fidelity_uncached`` 0.816 on one seeded trace.  The gap is sampling,
not a stale or wrong cache entry: ``reuse_fidelity_cache`` keeps the first
job's finite-shot sample for each (structure, device, calibration, shots)
key, while the uncached path seeds every job by its own name and so draws a
fresh sample per job.
"""

from __future__ import annotations

import pytest

from repro.backends import three_device_testbed
from repro.circuits import bernstein_vazirani, ghz
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.policies import resolve_policy
from repro.utils.cache import calibration_fingerprint, clear_all_caches, structural_circuit_hash
from repro.workloads.arrivals import JobRequest

SHOTS = 128


def _smoke_trace(jobs: int = 18) -> list:
    """The scheduler bench's smoke trace: 18 arrivals over three circuits."""
    circuits = [("ghz4", ghz(4)), ("bv101", bernstein_vazirani("101")), ("ghz5", ghz(5))]
    trace = []
    for index in range(jobs):
        key, circuit = circuits[index % len(circuits)]
        trace.append(
            JobRequest(
                index=index,
                arrival_time=float(index),
                workload_key=key,
                circuit=circuit,
                strategy="fidelity",
                fidelity_threshold=0.0,
                shots=256,
                user=f"user-{index % 4}",
            )
        )
    return trace


def _run(reuse: bool):
    clear_all_caches()
    fleet = three_device_testbed()
    config = CloudSimulationConfig(
        fidelity_report="execute", execution_shots=SHOTS, reuse_fidelity_cache=reuse, seed=5
    )
    return CloudSimulator(fleet, resolve_policy("least-loaded"), config=config).run(_smoke_trace()), fleet


@pytest.fixture(scope="module")
def runs():
    cached, fleet = _run(reuse=True)
    uncached, _ = _run(reuse=False)
    return cached, uncached, {backend.name: backend for backend in fleet}


def test_cached_record_reuses_the_first_job_of_its_key(runs):
    cached, uncached, backends = runs
    first_fidelity = {}
    for trace_job, cached_record, uncached_record in zip(_smoke_trace(), cached.records, uncached.records):
        assert cached_record.device == uncached_record.device
        backend = backends[cached_record.device]
        key = (
            structural_circuit_hash(trace_job.circuit),
            backend.name,
            calibration_fingerprint(backend.properties),
            SHOTS,
        )
        first_fidelity.setdefault(key, uncached_record.fidelity)
        assert cached_record.fidelity == first_fidelity[key]
    assert len(first_fidelity) == 3


def test_bench_means_are_pinned(runs):
    cached, uncached, _ = runs
    assert round(cached.mean_fidelity(), 3) == 0.819
    assert round(uncached.mean_fidelity(), 3) == 0.809
