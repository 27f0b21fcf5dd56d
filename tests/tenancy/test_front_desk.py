"""The shared submission front desk: one contract for both QRIO fronts.

``QRIOService`` (the in-process runtime) and ``ShardedService`` (process
shards) name, admit and count jobs through one desk.  A batch is named,
admitted and charged to its tenants before the back end sees it, and a
rejection at any of those steps leaves names, tenant slots and counters
exactly as they were.

Only the sharded front runs its jobs here (in its shard); the in-process
front runs with ``workers=0`` and is never driven, so its jobs stay queued
and its ledger stays put between the checks.
"""

import itertools
import sys
import threading

import pytest

from repro.backends import generate_fleet
from repro.circuits import ghz
from repro.service import EngineSpec, JobRequirements, JobSpec, QRIOService, ShardedService
from repro.tenancy import AdmissionController, Tenant
from repro.utils.exceptions import AdmissionRejectedError, ServiceError

ENGINE = EngineSpec(kind="cloud", seed=11, fidelity_report="none")
_prefixes = (f"t{index}" for index in itertools.count())


def _fleet():
    return generate_fleet(limit=2, seed=11)


@pytest.fixture(scope="module")
def sharded_front():
    admission = AdmissionController(slo_wait_s=60.0)
    service = ShardedService(_fleet(), shards=1, engine=ENGINE, admission=admission)
    yield service
    service.close()


@pytest.fixture
def qrio_front():
    service = QRIOService(_fleet(), ENGINE.build(), admission=AdmissionController(slo_wait_s=60.0))
    yield service
    service.close()


@pytest.fixture(params=["qrio", "sharded"])
def front(request):
    return request.getfixturevalue(f"{request.param}_front")


@pytest.fixture
def prefix():
    """A name prefix no other test on the shared shard uses."""
    return next(_prefixes)


def _settle(front):
    """Let the sharded front finish what it dispatched (its ledger moves as shards report)."""
    if isinstance(front, ShardedService):
        front.process(timeout=60)


def _spec(tenant, name=None):
    return JobSpec(circuit=ghz(2), requirements=JobRequirements(tenant=tenant), shots=16, name=name)


def _queued(front, tenant_id):
    return front.tenants_report()["tenants"].get(tenant_id, {}).get("queued", 0)


def test_duplicate_name_rejection_leaves_no_trace(front, prefix):
    tenant = Tenant(id=f"{prefix}-tenant")
    front.submit_specs([_spec(tenant, f"{prefix}-taken")])
    _settle(front)
    queued, submitted = _queued(front, tenant.id), front.stats()["submitted"]

    # A batch whose second name is taken: its first name must stay free.
    with pytest.raises(ServiceError):
        front.submit_specs([_spec(tenant, f"{prefix}-fresh"), _spec(tenant, f"{prefix}-taken")])
    # A batch that repeats one name inside itself: that name must stay free.
    with pytest.raises(ServiceError):
        front.submit_specs([_spec(tenant, f"{prefix}-twice"), _spec(tenant, f"{prefix}-twice")])
    assert _queued(front, tenant.id) == queued
    assert front.stats()["submitted"] == submitted

    handles = front.submit_specs([_spec(tenant, f"{prefix}-fresh"), _spec(tenant, f"{prefix}-twice")])
    assert [handle.name for handle in handles] == [f"{prefix}-fresh", f"{prefix}-twice"]
    assert front.stats()["submitted"] == submitted + 2
    _settle(front)


def test_admission_refusal_leaves_no_trace(front, prefix):
    capped = Tenant(id=f"{prefix}-capped", max_pending=1)
    front.submit_specs([_spec(capped, f"{prefix}-first")])
    _settle(front)
    queued, submitted = _queued(front, capped.id), front.stats()["submitted"]

    with pytest.raises(AdmissionRejectedError):
        front.submit_specs([_spec(capped, f"{prefix}-x"), _spec(capped, f"{prefix}-y")])
    assert _queued(front, capped.id) == queued
    assert front.stats()["submitted"] == submitted

    free = Tenant(id=f"{prefix}-free")
    handles = front.submit_specs([_spec(free, f"{prefix}-x"), _spec(free, f"{prefix}-y")])
    assert [handle.name for handle in handles] == [f"{prefix}-x", f"{prefix}-y"]
    _settle(front)


def test_auto_names_are_unique_and_skip_claimed_names(front, prefix):
    tenant = Tenant(id=f"{prefix}-tenant")
    first = front.submit_specs([_spec(tenant)])[0].name
    assert first.startswith(front.NAME_PREFIX)
    number = int(first[len(front.NAME_PREFIX):])
    claimed = [f"{front.NAME_PREFIX}{number + offset:04d}" for offset in (1, 3)]
    front.submit_specs([_spec(tenant, name) for name in claimed])

    names = [handle.name for handle in front.submit_specs([_spec(tenant) for _ in range(3)])]
    assert len(set(names)) == 3
    assert not set(names) & set(claimed + [first])
    assert names == [f"{front.NAME_PREFIX}{number + offset:04d}" for offset in (2, 4, 5)]
    _settle(front)


def test_a_rejected_auto_named_batch_draws_no_names(front, prefix):
    capped = Tenant(id=f"{prefix}-capped", max_pending=1)
    before = front.submit_specs([_spec(Tenant(id=f"{prefix}-free"))])[0].name
    with pytest.raises(AdmissionRejectedError):
        front.submit_specs([_spec(capped), _spec(capped)])
    after = front.submit_specs([_spec(Tenant(id=f"{prefix}-free"))])[0].name
    assert int(after[len(front.NAME_PREFIX):]) == int(before[len(front.NAME_PREFIX):]) + 1
    _settle(front)


def test_tenant_rows_share_their_keys(qrio_front, sharded_front, prefix):
    tenant = Tenant(id=f"{prefix}-tenant", weight=2.0)
    for front in (qrio_front, sharded_front):
        front.submit_specs([_spec(tenant)])
    _settle(sharded_front)
    qrio_row = qrio_front.tenants_report()["tenants"][tenant.id]
    sharded_row = sharded_front.tenants_report()["tenants"][tenant.id]
    assert set(sharded_row) == set(qrio_row) | {"shard"}
    assert sharded_row["shard"] == sharded_front.shard_of_tenant(tenant.id)
    assert sharded_row["inflight"] == 0
    assert qrio_row["queued"] == 1 and sharded_row["queued"] == 0
    assert qrio_row["weight"] == sharded_row["weight"] == 2.0


def test_racing_submitters_claim_each_name_once_and_leave_the_ledger_clean():
    """Four threads race for the same explicit names on a threaded runtime:
    each name is won by one batch, the losers' auto-generated names and
    tenant slots are given back, and every admitted job is counted once."""
    service = QRIOService(_fleet(), ENGINE.build(), workers=2)
    tenant = Tenant(id="racer")
    accepted, guard = [], threading.Lock()

    def submitter():
        for round_index in range(20):
            try:
                handles = service.submit_specs([_spec(tenant), _spec(tenant, f"shared-{round_index}")])
            except ServiceError:
                continue
            with guard:
                accepted.extend(handles)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    try:
        service.process()
        names = [handle.name for handle in accepted]
        assert len(names) == len(set(names)) == 40
        stats = service.stats()
        assert stats["submitted"] == stats["jobs_succeeded"] == 40
        row = service.tenants_report()["tenants"]["racer"]
        assert row["queued"] == row["inflight"] == 0
    finally:
        service.close()
