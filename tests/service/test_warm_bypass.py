"""The runtime's warm bypass: a warm group replays its plan without queueing.

At ``workers >= 1`` a group whose stored plan replays goes straight to its
device lane from the submitting thread, so it runs while another job is
still being ranked.  It may do so only when no group is queued (a), no fault
injector is attached (b) and the plan's node still has room for the group in
MATCHING afterwards (c).  These tests hold a cold job's ranking on a
:class:`threading.Event` to reach each state deterministically, and check
that every job's device and counts match the serialized ``workers=0`` run.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.backends import generate_fleet
from repro.circuits import ghz
from repro.circuits.algorithms import hardware_efficient_ansatz
from repro.cluster.node import NodeCapacity
from repro.scenarios import FaultInjector
from repro.service import (
    JobRequirements,
    JobSpec,
    JobState,
    OrchestratorEngine,
    QRIOService,
    ServiceOverloadedError,
)
from repro.tenancy import Tenant
from repro.utils.cache import PLAN_STATS
from repro.utils.exceptions import ClusterError, ServiceError
from repro.workloads.suites import clifford_suite

#: ghz(3) ranks onto a 5-qubit device of the small fleet; ghz(6) cannot go there.
WARM, COLD = ghz(3), ghz(6)
SHOTS = 64
REQUIREMENTS = JobRequirements(fidelity_threshold=0.8)
#: Exactly one default job (500m CPU / 512 MB) per node.
ONE_SLOT = NodeCapacity(cpu_millicores=500, memory_mb=512)
#: Room for a replayed job plus the group in MATCHING, and nothing more.
TWO_SLOTS = NodeCapacity(cpu_millicores=1000, memory_mb=1024)
BYPASS_NOTE = "replayed a warm plan"


class GatedEngine(OrchestratorEngine):
    """An orchestrator whose scheduling cycle (the canary ranking) can be held."""

    def __init__(self, fleet=None, capacity=None, **kwargs):
        super().__init__(**kwargs)
        if capacity is not None:
            for backend in fleet:
                self.cluster.register_backend(backend, capacity)
                self.meta_server.register_backend(backend)
        self.ranking = threading.Event()
        self.release = threading.Event()
        self.release.set()
        schedule = self.scheduler.schedule

        def gated(*args, **kw):
            self.ranking.set()
            assert self.release.wait(10), "test gate was never released"
            return schedule(*args, **kw)

        self.scheduler.schedule = gated

    def hold(self):
        self.ranking.clear()
        self.release.clear()


def small_fleet():
    return generate_fleet(seed=2024, limit=4)


def service_with(workers, capacity=None, **kwargs):
    fleet = small_fleet()
    engine = GatedEngine(fleet, capacity, seed=3, canary_shots=SHOTS)
    return engine, QRIOService(fleet, engine, workers=workers, **kwargs)


def hold_cold(service, engine, shots=SHOTS + 1, circuit=COLD):
    """Submit a cold job and return once its ranking is held in MATCHING."""
    engine.hold()
    cold = service.submit(circuit, 0.8, shots=shots, name=f"cold-{shots}")
    assert engine.ranking.wait(10)
    return cold


def bypassed(handle):
    return BYPASS_NOTE in handle.events()[1].message


def bypasses(service):
    return sum(bypassed(handle) for handle in service.jobs())


class TestWarmBypass:
    def test_warm_job_finishes_while_a_cold_job_is_ranked(self):
        engine, service = service_with(workers=2)
        with service:
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            cold = hold_cold(service, engine)
            warm = service.submit(WARM, 0.8, shots=SHOTS, name="warm")
            assert warm.wait(timeout=10).state == JobState.DONE
            assert cold.state == JobState.MATCHING
            engine.release.set()
            assert cold.result(timeout=30).device is not None
            assert warm.result().detail["plan_replay"] and bypassed(warm)
            assert bypasses(service) == 1

    def test_events_run_queued_matching_running_done_in_time_order(self):
        engine, service = service_with(workers=2)
        with service:
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            warm = service.submit(WARM, 0.8, shots=SHOTS, name="warm")
            warm.result(timeout=30)
            events = warm.events()
        assert bypassed(warm)
        assert [event.state for event in events] == [
            JobState.QUEUED, JobState.MATCHING, JobState.RUNNING, JobState.DONE
        ]
        stamps = [event.timestamp for event in events]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize(
        "requirements",
        [
            JobRequirements(fidelity_threshold=0.8, priority=9),
            JobRequirements(fidelity_threshold=0.8, tenant=Tenant("interactive", weight=4.0)),
        ],
        ids=["higher-priority", "other-tenant"],
    )
    def test_no_overtaking_while_a_group_is_queued(self, requirements):
        engine, service = service_with(workers=1)
        with service:
            service.submit(WARM, requirements, shots=SHOTS, name="warm-up").result(timeout=30)
            hold_cold(service, engine)
            queued = service.submit(COLD, 0.8, shots=SHOTS + 2, name="queued")
            warm = service.submit(WARM, requirements, shots=SHOTS, name="warm")
            assert queued.state == JobState.QUEUED and warm.state == JobState.QUEUED
            engine.release.set()
            service.process()
            assert warm.result().detail["plan_replay"] and not bypassed(warm)
            assert bypasses(service) == 0

    def test_no_bypass_with_a_fault_injector(self):
        engine, service = service_with(workers=2)
        service.set_fault_injector(FaultInjector([]))
        with service:
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            hold_cold(service, engine)
            warm = service.submit(WARM, 0.8, shots=SHOTS, name="warm")
            assert warm.state == JobState.QUEUED
            engine.release.set()
            service.process()
            assert warm.result().detail["plan_replay"] and not bypassed(warm)
            assert bypasses(service) == 0

    def test_one_plan_hit_or_miss_per_job(self):
        engine, service = service_with(workers=2)
        with service:
            before = PLAN_STATS.hits, PLAN_STATS.misses
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)  # miss
            service.submit(WARM, 0.8, shots=SHOTS, name="direct").result(timeout=30)  # bypass hit
            hold_cold(service, engine)  # miss
            service.submit(COLD, 0.8, shots=SHOTS + 2, name="queued")  # miss
            service.submit(WARM, 0.8, shots=SHOTS, name="behind")  # hit in MATCHING
            engine.release.set()
            service.process()
            assert bypasses(service) == 1
        assert (PLAN_STATS.hits - before[0], PLAN_STATS.misses - before[1]) == (2, 3)

    def test_a_replay_that_raises_fails_the_job_in_matching(self):
        # The name is still active in the cluster (entered outside the
        # service), so entering the job raises: the bypass falls back to the
        # queue and the funnel's match fails the job, as at workers=0.
        engine, service = service_with(workers=2)
        with service:
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            engine.submit(JobSpec(circuit=WARM, requirements=REQUIREMENTS, shots=SHOTS), "taken")
            status = service.submit(WARM, 0.8, shots=SHOTS, name="taken").wait(timeout=30)
            assert status.state == JobState.FAILED and "already active" in status.error
            assert bypasses(service) == 0


class TestRoomForTheGroupInMatching:
    """Rule (c): a replay binds only where the group in MATCHING still fits."""

    def test_replay_declines_and_changes_nothing_without_room(self):
        engine, service = service_with(workers=0, capacity=ONE_SLOT)
        device = service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result().device
        spec = JobSpec(circuit=WARM, requirements=REQUIREMENTS, shots=SHOTS)
        alongside = JobSpec(circuit=COLD, requirements=REQUIREMENTS, shots=SHOTS)
        before = PLAN_STATS.hits, PLAN_STATS.misses
        assert engine.replay(spec, "late", alongside=alongside) is None
        assert (PLAN_STATS.hits, PLAN_STATS.misses) == before
        with pytest.raises(ClusterError):
            engine.cluster.job("late")  # not even entered
        placement = engine.replay(spec, "late")
        assert placement.device == device
        assert PLAN_STATS.hits == before[0] + 1
        assert engine.cluster.node_for_device(device).bound_jobs == ["late"]

    @staticmethod
    def _held_run(workers):
        engine, service = service_with(workers=workers, capacity=ONE_SLOT)
        with service:
            first = service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            assert engine.cluster.node_for_device(first.device).backend.num_qubits < COLD.num_qubits
            if workers:
                cold = hold_cold(service, engine)
                warm = service.submit(WARM, 0.8, shots=SHOTS, name="warm")
                assert warm.state == JobState.QUEUED  # the one slot is the cold job's to take
                engine.release.set()
            else:
                cold = service.submit(COLD, 0.8, shots=SHOTS + 1, name="cold-65")
                warm = service.submit(WARM, 0.8, shots=SHOTS, name="warm")
            service.process()
            assert bypasses(service) == 0
            return {
                handle.name: (handle.result().device, handle.result().counts) for handle in (cold, warm)
            }

    def test_one_slot_outcome_equals_the_serialized_run(self):
        assert self._held_run(workers=2) == self._held_run(workers=0)


class TestAtomicity:
    def test_overloaded_batch_binds_and_runs_nothing(self):
        engine, service = service_with(workers=1, max_pending=1)
        with service:
            service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
            executed = service.stats()["groups_executed"]
            with pytest.raises(ServiceOverloadedError):
                service.submit_batch([WARM, WARM], 0.8, shots=SHOTS, block=False)
            hold_cold(service, engine)
            service.submit(COLD, 0.8, shots=SHOTS + 2, name="fills-the-queue")
            with pytest.raises(ServiceOverloadedError):
                service.submit(WARM, 0.8, shots=SHOTS, name="rejected", block=False)
            assert {job.name for job in engine.cluster.jobs()} == {"warm-up", "cold-65"}
            assert service.stats()["groups_executed"] == executed
            engine.release.set()
            service.process()
            assert bypasses(service) == 0

    def test_close_racing_bypasses_leaves_no_node_allocated(self):
        engine, service = service_with(workers=2)
        service.submit(WARM, 0.8, shots=SHOTS, name="warm-up").result(timeout=30)
        handles = []

        def submit_until_closed():
            index = 0
            while True:
                try:
                    handles.append(service.submit(WARM, 0.8, shots=SHOTS, name=f"warm-{index}"))
                except ServiceError:
                    return
                index += 1

        submitter = threading.Thread(target=submit_until_closed)
        submitter.start()
        time.sleep(0.05)
        service.close()
        submitter.join(timeout=10)
        assert not submitter.is_alive()
        assert handles and all(handle.state == JobState.DONE for handle in handles)
        assert bypasses(service) >= 1
        assert all(not node.bound_jobs for node in engine.cluster.nodes())


    def test_concurrent_submitters_leave_every_node_empty(self):
        # More submitter threads than cores, with a short switch interval, so
        # a lost update to a node's allocation or the runtime's counters
        # would leave a node bound or a job unfinished.
        engine, service = service_with(workers=4)
        circuits = (WARM, ghz(4))
        handles = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                for circuit in circuits:
                    name = f"warm-up-{circuit.num_qubits}"
                    service.submit(circuit, 0.8, shots=SHOTS, name=name).result(timeout=30)
                before = PLAN_STATS.hits + PLAN_STATS.misses

                def submit(thread):
                    for index in range(20):
                        circuit = circuits[(thread + index) % 2]
                        handles.append(service.submit(circuit, 0.8, shots=SHOTS, name=f"t{thread}-{index}"))

                threads = [threading.Thread(target=submit, args=(thread,)) for thread in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                service.process()
                assert PLAN_STATS.hits + PLAN_STATS.misses - before == 80
                assert bypasses(service) >= 1
        finally:
            sys.setswitchinterval(interval)
        assert len(handles) == 80 and all(handle.state == JobState.DONE for handle in handles)
        for node in engine.cluster.nodes():
            assert not node.bound_jobs
            assert (node.available_cpu, node.available_memory) == (
                node.capacity.cpu_millicores, node.capacity.memory_mb
            )


class TestMixedTraceEquivalence:
    """workers=0 and workers=2 give every job the same device and counts.

    Each step submits a fresh-angle job and, once that job is in MATCHING, a
    warm Clifford-suite replay — at ``workers=2`` the replay takes the
    bypass while the fresh job is ranked.
    """

    @staticmethod
    def _run(workers, capacity=None):
        fleet = generate_fleet(seed=2024, limit=16)
        engine = GatedEngine(fleet, capacity, seed=7, canary_shots=128)
        suite = clifford_suite().entries
        rng = np.random.default_rng(2024)
        handles = []
        with QRIOService(fleet, engine, workers=workers) as service:
            for entry in suite:
                handles.append(
                    service.submit(
                        entry.circuit(), entry.fidelity_threshold, shots=256, name=f"warm-up-{entry.key}"
                    )
                )
                handles[-1].wait(timeout=60)
            for index, entry in enumerate(suite):
                fresh = hardware_efficient_ansatz(
                    4, layers=2, parameters=rng.uniform(0.0, 2.0 * np.pi, size=12), measure=True
                )
                handles.append(service.submit(fresh, 0.8, shots=256, name=f"fresh-{index}"))
                if workers:
                    for event in handles[-1].events(follow=True, timeout=60):
                        if event.state != JobState.QUEUED:
                            break
                handles.append(
                    service.submit(
                        entry.circuit(), entry.fidelity_threshold, shots=256, name=f"warm-{entry.key}"
                    )
                )
                service.process()
            taken = bypasses(service)
        outcome = {handle.name: (handle.result().device, handle.result().counts) for handle in handles}
        return outcome, taken

    @pytest.mark.parametrize("capacity", [None, TWO_SLOTS], ids=["default-capacity", "two-slot-nodes"])
    def test_workers_two_routes_and_samples_like_workers_zero(self, capacity):
        serial, _ = self._run(0, capacity)
        concurrent, taken = self._run(2, capacity)
        assert concurrent == serial
        assert taken == len(clifford_suite().entries)
