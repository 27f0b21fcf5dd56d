"""End-to-end fairness under a 10:1 tenant burst — the acceptance scenario.

A burster floods the concurrent runtime with ten times the victim's load.
Replayed tenant-blind, the victim's jobs queue behind the whole burst (the
single-priority-heap FIFO baseline); replayed tenant-aware with weighted-fair
queueing and an admission controller attached, the victim is served
interleaved with the burst.  The pins:

* cross-tenant Jain fairness over head-of-queue waits >= 0.8, and
* the victim's p99 wait <= 0.5x its tenant-blind FIFO baseline.

The p99 pin uses wall-clock waits (QUEUED -> RUNNING from the service's own
wait report), made real by :class:`DeviceLatencyEngine` occupancy — the cloud
simulator's *simulated* waits would never see WFQ dispatch order.  The Jain
pin counts waits in *dispatches* instead: what the WFQ controls is the order
in which queued jobs leave the queue, while a wall-clock head-of-queue wait
also measures how long MATCHING takes, which no queue decides.  A pin that
drifted with matching speed would flake whenever matching got faster.
"""

from collections import deque

import pytest

from repro.backends import generate_fleet
from repro.circuits import ghz
from repro.service import (
    DeviceLatencyEngine,
    JobRequirements,
    JobState,
    OrchestratorEngine,
    QRIOService,
)
from repro.service.handle import wall_wait_from_events
from repro.tenancy import AdmissionController, Tenant
from repro.workloads.metrics import jain_fairness_index

BURST_JOBS = 20
VICTIM_JOBS = 2  # 10:1 offered load
LATENCY_S = 0.03


def _engine(seed=17):
    return DeviceLatencyEngine(
        OrchestratorEngine(seed=seed, canary_shots=64), latency_s=LATENCY_S
    )


def _dispatch_slots(events):
    """Each job's wait counted in dispatches rather than seconds.

    A job's slot is one plus the number of other jobs the dispatcher popped
    (moved to MATCHING) between the job's submission and its own pop.
    """
    queued = {name: job_events[0].timestamp for name, job_events in events.items()}
    popped = {
        name: next(event.timestamp for event in job_events if event.state == JobState.MATCHING)
        for name, job_events in events.items()
    }
    return {
        name: 1 + sum(queued[name] < popped[other] < popped[name] for other in popped)
        for name in popped
    }


def _run(tenant_aware: bool):
    """Submit the burst then the victim trickle.

    Returns (wait report, per-job wall-clock waits, per-job dispatch slots).
    """
    fleet = generate_fleet(limit=2, seed=17)
    admission = (
        AdmissionController(slo_wait_s=30.0) if tenant_aware else None
    )
    burster = Tenant(id="burster") if tenant_aware else None
    victim = Tenant(id="victim") if tenant_aware else None
    service = QRIOService(fleet, _engine(), workers=2, admission=admission)
    try:
        for index in range(BURST_JOBS):
            service.submit(
                ghz(2 + index % 2),
                JobRequirements(tenant=burster),
                shots=32 + index,
                name=f"burst-{index:02d}",
            )
        for index in range(VICTIM_JOBS):
            service.submit(
                ghz(3),
                JobRequirements(tenant=victim),
                shots=512 + index,
                name=f"victim-{index}",
            )
        service.process()
        events = {handle.name: handle.events() for handle in service.jobs()}
        waits = {name: wall_wait_from_events(job_events) for name, job_events in events.items()}
        return service.wait_report(), waits, _dispatch_slots(events)
    finally:
        service.close()


def _victim_waits(waits):
    return [waits[f"victim-{index}"] for index in range(VICTIM_JOBS)]


def _head_of_queue_jain(slots):
    """Jain index over each tenant's mean dispatch slot of its first VICTIM_JOBS jobs.

    Fairness is service received at *equal queue position*: the burster's
    overall mean is legitimately higher, since its later jobs wait behind
    its own backlog.
    """
    burster_head = [slots[f"burst-{index:02d}"] for index in range(VICTIM_JOBS)]
    victim_head = _victim_waits(slots)
    fairness = jain_fairness_index(
        [sum(burster_head) / len(burster_head), sum(victim_head) / len(victim_head)]
    )
    return fairness, burster_head, victim_head


@pytest.fixture(scope="module")
def runs():
    # One pair of runs for the whole module: these are wall-clock workloads.
    return {"fifo": _run(tenant_aware=False), "wfq": _run(tenant_aware=True)}


def test_burst_run_completes_everything(runs):
    for report, waits, _ in runs.values():
        assert report["jobs"] == BURST_JOBS + VICTIM_JOBS
        assert report["finished"] == BURST_JOBS + VICTIM_JOBS
        assert all(wait is not None for wait in waits.values())


def test_fifo_baseline_parks_the_victim_behind_the_burst(runs):
    # Sanity precondition for the ratio pin: tenant-blind, the victim's jobs
    # (submitted after the burst) wait at least as long as the median job.
    report, waits, _ = runs["fifo"]
    assert min(_victim_waits(waits)) >= report["waits"]["p50"]


def test_victim_p99_halves_under_wfq_plus_admission(runs):
    _, fifo_waits, _ = runs["fifo"]
    wfq_report, _, _ = runs["wfq"]
    fifo_victim_p99 = max(_victim_waits(fifo_waits))
    wfq_victim_p99 = wfq_report["tenants"]["victim"]["p99"]
    assert wfq_victim_p99 <= 0.5 * fifo_victim_p99, (
        f"victim p99 {wfq_victim_p99:.3f}s vs FIFO baseline "
        f"{fifo_victim_p99:.3f}s — WFQ+admission must at least halve it"
    )


def test_cross_tenant_jain_fairness_floor(runs):
    fairness, burster_head, victim_head = _head_of_queue_jain(runs["wfq"][2])
    assert fairness >= 0.8, (
        f"Jain index {fairness:.3f} < 0.8 over head-of-queue dispatch slots "
        f"(burster {burster_head}, victim {victim_head})"
    )


class _FifoDrain:
    """Tenant-blind stand-in for the WFQ: drains groups in submission order."""

    def __init__(self):
        self._items = deque()

    def push(self, tenant_id, weight, key, item, *, cost=1.0):
        self._items.append(item)

    def pop(self):
        return self._items.popleft()

    def __len__(self):
        return len(self._items)


def test_jain_floor_fails_when_the_wfq_is_a_fifo_drain(monkeypatch):
    # The dispatch-slot pin must measure the queue, not the fleet: with the
    # same tenants, admission and burst but a FIFO drain in place of the
    # WFQ, the victim waits behind the whole burst and the floor is missed.
    monkeypatch.setattr("repro.service.runtime.WeightedFairQueue", _FifoDrain)
    fairness, burster_head, victim_head = _head_of_queue_jain(_run(tenant_aware=True)[2])
    assert fairness < 0.8, (burster_head, victim_head)
