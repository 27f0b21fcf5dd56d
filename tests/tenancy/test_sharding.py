"""ShardedService: engine recipes, routing, and the spawned end-to-end run."""

import os
import signal
import time

import pytest

from repro.backends import generate_fleet
from repro.circuits import ghz
from repro.policies import PinnedDevicePolicy
from repro.service import EngineSpec, JobRequirements, ShardedService, pinned_device_of
from repro.tenancy import AdmissionController, Tenant
from repro.utils.exceptions import AdmissionRejectedError, ServiceError, ShardDiedError


class TestEngineSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError):
            EngineSpec(kind="warp-drive")

    def test_rejects_the_retired_cluster_kind(self):
        with pytest.raises(ServiceError, match="'cluster'"):
            EngineSpec(kind="cluster")

    def test_rejects_policy_instances(self):
        # Recipes cross process boundaries: policies must stay spec strings.
        with pytest.raises(ServiceError):
            EngineSpec(policy=PinnedDevicePolicy(device="sim_q5_c10"))

    def test_rejects_negative_latency(self):
        with pytest.raises(ServiceError):
            EngineSpec(latency_s=-0.1)

    @pytest.mark.parametrize("kind", ["orchestrator", "cloud"])
    def test_build_constructs_each_engine_kind(self, kind):
        engine = EngineSpec(kind=kind, seed=3, fidelity_report="none").build()
        assert engine.name  # every engine exposes a name

    def test_latency_wraps_the_inner_engine(self):
        engine = EngineSpec(kind="cloud", latency_s=0.01, fidelity_report="none").build()
        assert "latency" in engine.name


class TestPinnedDeviceOf:
    def test_none_policy_has_no_pin(self):
        assert pinned_device_of(None) is None

    def test_spec_string_pin(self):
        assert pinned_device_of("pinned:device=sim_q5_c10") == "sim_q5_c10"

    def test_policy_instance_pin(self):
        assert pinned_device_of(PinnedDevicePolicy(device="sim_q20_c10")) == "sim_q20_c10"

    def test_other_policies_have_no_pin(self):
        assert pinned_device_of("round-robin") is None


class TestParentSideValidation:
    """Constructor errors raised before any worker process spawns."""

    def test_rejects_zero_shards(self):
        with pytest.raises(ServiceError):
            ShardedService(generate_fleet(limit=2, seed=11), shards=0)

    def test_rejects_more_shards_than_devices(self):
        with pytest.raises(ServiceError):
            ShardedService(generate_fleet(limit=2, seed=11), shards=3)

    def test_rejects_zero_vnodes(self):
        with pytest.raises(ServiceError):
            ShardedService(generate_fleet(limit=2, seed=11), shards=2, vnodes=0)


@pytest.mark.chaos
def test_sharded_dispatch_end_to_end():
    """One spawned 2-shard run: routing, quotas, merged reports, idempotent close.

    Chaos-marked so the CI chaos job re-runs it under ``QRIO_RACETRACE=1``
    with the parent's locks traced while two real worker processes ship
    outcomes back concurrently.
    """
    fleet = generate_fleet(limit=4, seed=11)
    admission = AdmissionController(slo_wait_s=60.0)
    spec = EngineSpec(kind="cloud", seed=11, fidelity_report="none")
    service = ShardedService(fleet, shards=2, engine=spec, admission=admission)
    try:
        assert service.num_shards == 2
        # The fleet partition is a name-sorted interleave: every device owned
        # by exactly one shard.
        fleets = service.shard_fleets()
        assert sorted(name for shard in fleets for name in shard) == sorted(
            device.name for device in fleet
        )

        # Tenant-hash routing is consistent: every job of a tenant lands on
        # the shard the ring names.
        alpha, bravo = Tenant(id="alpha"), Tenant(id="bravo")
        handles = []
        for index, tenant in enumerate([alpha, bravo, alpha, bravo, alpha]):
            handle = service.submit(
                ghz(3),
                JobRequirements(tenant=tenant),
                shots=64 + index,
                name=f"job-{tenant.id}-{index}",
            )
            assert handle.shard_index == service.shard_of_tenant(tenant.id)
            assert handle.tenant_id == tenant.id
            handles.append(handle)

        # Device affinity overrides the tenant hash.
        pinned_device = fleets[1 - service.shard_of_tenant("alpha")][0]
        pinned = service.submit(
            ghz(2),
            JobRequirements(tenant=alpha, policy=f"pinned:device={pinned_device}"),
            shots=32,
            name="pinned-job",
        )
        assert pinned.shard_index == service.shard_of_device(pinned_device)
        assert pinned.shard_index != service.shard_of_tenant("alpha")

        # Parent-side quota enforcement rejects before routing.
        capped = Tenant(id="capped", max_pending=1)
        service.submit(ghz(2), JobRequirements(tenant=capped), shots=16, name="capped-0")
        with pytest.raises(AdmissionRejectedError):
            service.submit(ghz(2), JobRequirements(tenant=capped), shots=16, name="capped-1")

        with pytest.raises(ServiceError):  # duplicate names stay rejected
            service.submit(ghz(2), JobRequirements(), shots=16, name="pinned-job")
        with pytest.raises(ServiceError):  # unknown pinned device
            service.submit(
                ghz(2), JobRequirements(policy="pinned:device=no-such-device"), shots=16
            )

        service.process()
        for handle in handles + [pinned]:
            assert handle.done() and handle.error() is None
            result = handle.result()
            assert result.device in {name for shard in fleets for name in shard}
        assert pinned.result().device == pinned_device

        # The pinned job really ran on the shard that owns its device.
        events = pinned.events()
        assert events and events[0].tenant == "alpha"

        # Merged observability: one service-shaped wait report and the
        # tenants listing with the shard-routing column.
        report = service.wait_report()
        assert report["jobs"] == 7
        assert report["finished"] == 7
        assert set(report["tenants"]) == {"alpha", "bravo", "capped"}
        tenants = service.tenants_report()
        assert tenants["tenants"]["alpha"]["shard"] == service.shard_of_tenant("alpha")
        assert tenants["admission"]["samples"] > 0
        stats = service.stats()
        assert stats["jobs_succeeded"] == 7
        assert stats["outstanding"] == 0
        assert not stats["dead_shards"]
        assert sum(stats["jobs_per_shard"].values()) == 7
    finally:
        service.close()
    service.close()  # idempotent
    with pytest.raises(ServiceError):
        service.submit(ghz(2), JobRequirements(), shots=16)


@pytest.mark.chaos
def test_killed_shard_fails_its_jobs_and_close_returns():
    """SIGKILL one of two shards mid-trace: its pipe reads as EOF, so the
    collector fails the dead shard's handles with its exit code, the other
    shard's jobs succeed, and close() does not wait out the collector join."""
    fleet = generate_fleet(limit=4, seed=11)
    spec = EngineSpec(kind="cloud", seed=11, fidelity_report="none", latency_s=0.3)
    service = ShardedService(fleet, shards=2, engine=spec)
    try:
        tenants = {}
        for index in range(64):
            tenants.setdefault(service.shard_of_tenant(f"tenant-{index}"), Tenant(id=f"tenant-{index}"))
        victim, survivor = tenants[0], tenants[1]
        doomed = [
            service.submit(ghz(3), JobRequirements(tenant=victim), shots=32 + index, name=f"doomed-{index}")
            for index in range(4)
        ]
        spared = [
            service.submit(ghz(3), JobRequirements(tenant=survivor), shots=32 + index, name=f"spared-{index}")
            for index in range(4)
        ]
        # Mid-trace: the victim shard has reported its first job and is
        # executing the next ones.
        assert doomed[0].wait(60)
        assert not doomed[-1].done()
        os.kill(service._processes[0].pid, signal.SIGKILL)

        deadline = time.monotonic() + 5.0
        for handle in doomed[1:]:
            assert handle.wait(max(0.0, deadline - time.monotonic())), "dead shard's job never resolved"
            assert handle.error().startswith("shard died: exit code")
            with pytest.raises(ShardDiedError):
                handle.result(timeout=0)
        assert service.stats()["dead_shards"] == {0: f"exit code {-signal.SIGKILL}"}
        for handle in spared:
            assert handle.result(timeout=60).shots == handle.spec.shots
        # A job routed to the dead shard afterwards fails at once.
        late = service.submit(ghz(3), JobRequirements(tenant=victim), shots=16, name="late")
        assert late.done() and late.error().startswith("shard died")
        with pytest.raises(ShardDiedError):
            late.result(timeout=0)
    finally:
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 15.0
