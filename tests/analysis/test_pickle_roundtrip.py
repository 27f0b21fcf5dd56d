"""Executable twin of QRIO-S001: shard-crossing objects survive a real hop.

The static rule pins the *structure* (frozen dataclass, no lock/lambda
fields); these tests prove the *behaviour* — an :class:`ExecutionPlan` and a
:class:`Trace` pickled here, shipped to a freshly spawned Python process
(its own interpreter, its own ``PYTHONHASHSEED`` salt), unpickled,
re-pickled and shipped back, come home semantically identical.  That hop is
exactly what the process-shard roadmap item needs to work.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends import three_device_testbed
from repro.circuits import ghz
from repro.plans import ExecutionPlan, PlanCompiler
from repro.scenarios import PoissonProcess, Trace, generate_requests
from repro.service import JobRequirements, JobSpec
from repro.tenancy import EngineSpec, ShardJob, ShardRequest, Tenant
from repro.workloads import clifford_suite

_REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"

#: The child does nothing repo-specific: unpickle stdin, re-pickle to stdout.
#: Unpickling alone imports and reconstructs the full object graph in the
#: fresh process, so a missing/unpicklable field fails loudly.
_CHILD = "import pickle,sys; sys.stdout.buffer.write(pickle.dumps(pickle.load(sys.stdin.buffer)))"


def round_trip_through_subprocess(obj):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # A different hash salt per hop makes any hash()-keyed state visible.
    env["PYTHONHASHSEED"] = "random"
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps(obj),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return pickle.loads(completed.stdout)


@pytest.fixture(scope="module")
def plan() -> ExecutionPlan:
    backend = three_device_testbed()[0]
    return PlanCompiler().compile(ghz(4), backend)


@pytest.fixture(scope="module")
def trace() -> Trace:
    return Trace.from_requests(
        "pickle-roundtrip",
        generate_requests(
            PoissonProcess(rate_per_hour=3600.0),
            num_jobs=4,
            suite=clifford_suite(),
            seed=3,
            shots=64,
        ),
        origin="test",
    )


class TestExecutionPlanRoundTrip:
    def test_survives_spawned_process(self, plan):
        returned = round_trip_through_subprocess(plan)
        assert isinstance(returned, ExecutionPlan)
        assert returned.device == plan.device
        assert returned.calibration_fingerprint == plan.calibration_fingerprint
        assert len(returned.transpiled.circuit) == len(plan.transpiled.circuit)


class TestTraceRoundTrip:
    def test_survives_spawned_process(self, trace):
        returned = round_trip_through_subprocess(trace)
        assert isinstance(returned, Trace)
        assert returned.name == trace.name
        assert returned.metadata == trace.metadata
        assert len(returned) == len(trace)
        for before, after in zip(trace, returned):
            assert after.index == before.index
            assert after.arrival_time == before.arrival_time
            assert after.workload_key == before.workload_key
            assert after.shots == before.shots
            assert len(after.circuit) == len(before.circuit)

    def test_round_tripped_trace_saves_identically(self, trace, tmp_path):
        # Byte-identical JSONL from parent and child copies: the full
        # serialisation path is hop-invariant, not just the field values.
        returned = round_trip_through_subprocess(trace)
        original_path = trace.save(tmp_path / "original.jsonl")
        returned_path = returned.save(tmp_path / "returned.jsonl")
        assert original_path.read_bytes() == returned_path.read_bytes()


class TestShardDispatchPayloadRoundTrip:
    """The exact payloads :class:`~repro.tenancy.ShardedService` ships to its
    spawned worker processes survive the hop intact — tenant included."""

    def test_shard_request_survives_spawned_process(self):
        fleet = three_device_testbed()
        request = ShardRequest(
            shard_index=1,
            num_shards=2,
            fleet=tuple(fleet[1::2]),
            engine=EngineSpec(kind="cloud", policy="round-robin", seed=7,
                              fidelity_report="none"),
            workers=2,
            max_pending=16,
        )
        returned = round_trip_through_subprocess(request)
        assert isinstance(returned, ShardRequest)
        assert returned.shard_index == request.shard_index
        assert returned.num_shards == request.num_shards
        assert returned.engine == request.engine
        assert returned.workers == request.workers
        assert returned.max_pending == request.max_pending
        assert [device.name for device in returned.fleet] == [
            device.name for device in request.fleet
        ]
        # The child can build a working engine from the shipped recipe.
        assert returned.engine.build().name

    def test_shard_job_survives_spawned_process(self):
        tenant = Tenant(id="acme", weight=2.5, max_pending=8, shots_per_second=900.0)
        job = ShardJob(
            job_id=42,
            spec=JobSpec(
                circuit=ghz(3),
                requirements=JobRequirements(fidelity_threshold=0.9, tenant=tenant),
                shots=256,
                name="shard-0042",
            ),
        )
        returned = round_trip_through_subprocess(job)
        assert isinstance(returned, ShardJob)
        assert returned.job_id == 42
        assert returned.spec.name == "shard-0042"
        assert returned.spec.shots == 256
        assert returned.spec.requirements.tenant == tenant
        assert len(returned.spec.circuit) == len(job.spec.circuit)
        # The dedup key — which embeds the tenant via the requirements — is
        # stable across the hop despite the child's different hash salt.
        assert returned.spec.dedup_key() == job.spec.dedup_key()
