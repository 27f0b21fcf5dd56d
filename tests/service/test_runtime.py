"""The concurrent service runtime: lanes, priorities, backpressure, futures.

Most tests drive the runtime with an in-memory stub engine whose MATCHING and
RUNNING stages can be gated on :class:`threading.Event` objects, so queue
states (full, blocked-in-match, mid-run) are reached deterministically rather
than by racing sleeps.  The handful of wall-clock assertions (lane overlap,
same-device serialization) use occupancy counters, not timing margins.
"""

import threading
import time

import pytest

from repro.backends import generate_fleet, three_device_testbed
from repro.circuits import ghz
from repro.service import (
    CloudEngine,
    DeviceLatencyEngine,
    EngineResult,
    ExecutionEngine,
    JobRequirements,
    JobState,
    OrchestratorEngine,
    Placement,
    QRIOService,
    ServiceOverloadedError,
)
from repro.cloud.simulation import CloudSimulationConfig
from repro.utils.exceptions import JobNotCompletedError, ServiceError


class StubEngine(ExecutionEngine):
    """Deterministic in-memory engine with gateable match/run stages."""

    supports_concurrent_run = True

    def __init__(self, route=None, run_seconds=0.0):
        self._fleet = []
        self._route = route  # job_name -> device name; None = first device
        self._run_seconds = run_seconds
        self._index = 0
        self.match_order = []
        self.match_calls = 0
        self.run_calls = 0
        self.match_gate = threading.Event()
        self.match_gate.set()
        self.match_started = threading.Event()
        self.run_gate = threading.Event()
        self.run_gate.set()
        self._occupancy_lock = threading.Lock()
        self.active_by_device = {}
        self.max_active_by_device = {}
        self.max_active_total = 0

    def attach(self, fleet):
        self._fleet = list(fleet)

    def fleet(self):
        return list(self._fleet)

    def match(self, spec, job_name):
        self.match_started.set()
        assert self.match_gate.wait(10), "test gate was never released"
        self.match_calls += 1
        self.match_order.append(job_name)
        if self._route is not None:
            device = self._route(job_name, self._index)
        else:
            device = self._fleet[0].name
        self._index += 1
        return Placement(job_name=job_name, spec=spec, device=device, num_feasible=len(self._fleet))

    def run(self, placement):
        assert self.run_gate.wait(10), "test gate was never released"
        with self._occupancy_lock:
            self.run_calls += 1
            device = placement.device
            self.active_by_device[device] = self.active_by_device.get(device, 0) + 1
            self.max_active_by_device[device] = max(
                self.max_active_by_device.get(device, 0), self.active_by_device[device]
            )
            self.max_active_total = max(self.max_active_total, sum(self.active_by_device.values()))
        if self._run_seconds:
            time.sleep(self._run_seconds)
        with self._occupancy_lock:
            self.active_by_device[device] -= 1
        return EngineResult(
            device=placement.device, counts={"0": placement.spec.shots}, shots=placement.spec.shots
        )


def _round_robin(fleet_size):
    return lambda job_name, index: f"dev-{index % fleet_size}"


class TestConstruction:
    def test_workers_zero_starts_no_thread(self):
        threads = threading.active_count()
        service = QRIOService(three_device_testbed(), StubEngine())
        assert not service.is_concurrent
        assert service.workers == 0
        assert service.runtime.workers == 0
        assert threading.active_count() == threads
        handles = [service.submit(ghz(3), 0.9, shots=8 + index) for index in range(3)]
        assert threading.active_count() == threads
        service.process()
        assert all(handle.done() for handle in handles)
        assert threading.active_count() == threads
        queued = service.submit(ghz(3), 0.9, shots=64)
        service.close()
        assert queued.done()  # close = drain, not abort
        assert threading.active_count() == threads
        with pytest.raises(ServiceError, match="closed"):
            service.submit(ghz(3), 0.9, shots=99)

    def test_negative_workers_rejected(self):
        with pytest.raises(ServiceError):
            QRIOService(three_device_testbed(), StubEngine(), workers=-1)

    def test_max_pending_requires_workers(self):
        with pytest.raises(ServiceError, match="workers"):
            QRIOService(three_device_testbed(), StubEngine(), max_pending=4)

    def test_stats_expose_runtime_occupancy(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=2, max_pending=8) as service:
            service.submit(ghz(3), 0.9, shots=8).wait()
            stats = service.stats()
            assert stats["workers"] == 2
            assert stats["jobs_succeeded"] == 1
            assert "queued_jobs" in stats and "active_lanes" in stats


class TestFutureSemantics:
    def test_wait_timeout_expires_without_raising(self):
        engine = StubEngine()
        engine.run_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            status = handle.wait(timeout=0.05)
            assert not status.finished  # expiry returns the live, non-terminal state
            assert not handle.done()
            engine.run_gate.set()
            assert handle.wait().state == JobState.DONE

    def test_result_timeout_raises_job_not_completed(self):
        engine = StubEngine()
        engine.run_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            with pytest.raises(JobNotCompletedError):
                handle.result(timeout=0.05)
            engine.run_gate.set()
            assert handle.result().shots == 8

    def test_callback_registered_before_completion_fires_on_worker(self):
        engine = StubEngine()
        engine.run_gate.clear()
        fired = threading.Event()
        seen = []
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            handle.add_done_callback(lambda h: (seen.append(h.state), fired.set()))
            assert not fired.is_set()
            engine.run_gate.set()
            assert fired.wait(5)
            assert seen == [JobState.DONE]

    def test_callback_registered_after_done_fires_immediately(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            handle.wait()
            seen = []
            handle.add_done_callback(lambda h: seen.append(h.name))
            assert seen == [handle.name]  # synchronous: already terminal

    def test_callback_exception_does_not_wedge_the_worker(self):
        engine = StubEngine()
        engine.run_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            bad = service.submit(ghz(3), 0.9, shots=8)
            bad.add_done_callback(lambda h: 1 / 0)
            engine.run_gate.set()
            bad.wait()
            # The worker survived the callback crash and serves the next job.
            assert service.submit(ghz(3), 0.9, shots=9).wait().state == JobState.DONE

    def test_done_flags_answer_as_property_and_as_call(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            handle.wait()
            assert handle.done and handle.done()
            assert not handle.failed and not handle.failed()
            assert handle.finished and handle.finished()
            # Flags must render like the bools they replaced, not as ints.
            assert str(handle.done) == "True" and f"{handle.failed}" == "False"

    def test_callback_may_drain_or_close_the_service(self):
        # Callbacks fire after the runtime accounts the group as finished,
        # so a callback that drains (process) or closes the service must not
        # self-deadlock the lane worker that runs it.
        engine = StubEngine()
        drained = threading.Event()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            handle.add_done_callback(lambda h: (service.process(), drained.set()))
            assert drained.wait(5)
            service.close()  # close-after-callback-drain must also not hang

    def test_events_follow_streams_to_terminal_state(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=2) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            states = [event.state for event in handle.events(follow=True)]
            assert states == [JobState.QUEUED, JobState.MATCHING, JobState.RUNNING, JobState.DONE]

    def test_events_follow_times_out_between_events(self):
        engine = StubEngine()
        engine.run_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            stream = handle.events(follow=True, timeout=0.05)
            with pytest.raises(JobNotCompletedError):
                for _ in stream:
                    pass
            engine.run_gate.set()

    def test_events_follow_on_synchronous_service_drives_processing(self):
        service = QRIOService(three_device_testbed(), StubEngine())
        handle = service.submit(ghz(3), 0.9, shots=8)
        states = [event.state for event in handle.events(follow=True)]
        assert states[-1] == JobState.DONE


class TestInlineDispatch:
    """workers=0: caller threads run the dispatch step, one at a time."""

    def test_threads_driving_their_own_jobs_share_one_matching_funnel(self):
        class SlowMatchEngine(StubEngine):
            def __init__(self):
                super().__init__(route=_round_robin(3))
                self.matching = 0
                self.max_matching = 0

            def match(self, spec, job_name):
                with self._occupancy_lock:
                    self.matching += 1
                    self.max_matching = max(self.max_matching, self.matching)
                try:
                    time.sleep(0.05)
                    return super().match(spec, job_name)
                finally:
                    with self._occupancy_lock:
                        self.matching -= 1

        engine = SlowMatchEngine()
        with QRIOService(three_device_testbed(), engine) as service:
            handles = [service.submit(ghz(3), 0.9, shots=8 + index) for index in range(8)]
            errors = []
            start = threading.Barrier(len(handles))

            def drive(handle):
                start.wait()
                try:
                    handle.result()
                except Exception as error:  # noqa: BLE001 - collected for the assert
                    errors.append(error)

            threads = [threading.Thread(target=drive, args=(handle,)) for handle in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(handle.done() for handle in handles)
        assert engine.match_calls == 8
        assert engine.max_matching == 1

    def test_callback_may_drive_another_job_on_the_same_device(self):
        # A done-callback runs inside the inline dispatch step; driving a
        # job bound for the same lane from it must dispatch that job nested.
        engine = StubEngine()
        with QRIOService(three_device_testbed(), engine) as service:
            first = service.submit(ghz(3), 0.9, shots=8)
            second = service.submit(ghz(3), 0.9, shots=9)
            seen = []
            first.add_done_callback(lambda handle: seen.append(second.result().shots))
            first.result()
            assert seen == [9]
            assert second.done()


class TestBackpressure:
    def _blocked_service(self, max_pending):
        """Service whose dispatcher is parked inside MATCHING of one job."""
        engine = StubEngine()
        engine.match_gate.clear()
        service = QRIOService(three_device_testbed(), engine, workers=1, max_pending=max_pending)
        service.submit(ghz(3), 0.9, shots=8, name="in-match")
        assert engine.match_started.wait(5)
        return service, engine

    def test_submit_block_false_raises_typed_overload(self):
        service, engine = self._blocked_service(max_pending=1)
        service.submit(ghz(3), 0.9, shots=9)  # fills the queue
        with pytest.raises(ServiceOverloadedError):
            service.submit(ghz(3), 0.9, shots=10, block=False)
        assert isinstance(ServiceOverloadedError("x"), ServiceError)
        engine.match_gate.set()
        service.close()

    def test_rejected_submit_leaves_no_orphan_handle(self):
        service, engine = self._blocked_service(max_pending=1)
        service.submit(ghz(3), 0.9, shots=9)
        submitted_before = service.stats()["submitted"]
        with pytest.raises(ServiceOverloadedError):
            service.submit(ghz(3), 0.9, shots=10, name="rejected", block=False)
        assert service.stats()["submitted"] == submitted_before
        with pytest.raises(ServiceError):
            service.job("rejected")
        engine.match_gate.set()
        service.close()

    def test_batch_larger_than_max_pending_always_rejected(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=1, max_pending=2) as service:
            with pytest.raises(ServiceOverloadedError, match="never fit"):
                service.submit_batch([ghz(3), ghz(4), ghz(5)], 0.9, shots=8)

    def test_blocking_submit_proceeds_once_capacity_frees(self):
        service, engine = self._blocked_service(max_pending=1)
        service.submit(ghz(3), 0.9, shots=9)
        admitted = []

        def blocked_submit():
            admitted.append(service.submit(ghz(3), 0.9, shots=10, block=True))

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        thread.join(timeout=0.1)
        assert thread.is_alive()  # parked on the full queue
        engine.match_gate.set()  # dispatcher resumes and frees capacity
        thread.join(timeout=5)
        assert not thread.is_alive()
        service.process()
        assert admitted[0].done()
        service.close()


class TestPriorityScheduling:
    def test_priority_then_deadline_then_fifo(self):
        engine = StubEngine()
        engine.match_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            service.submit(ghz(3), 0.9, shots=8, name="head")
            assert engine.match_started.wait(5)
            # Queued while the dispatcher is busy; dispatch order is up to the heap.
            service.submit(ghz(3), 0.9, shots=9, name="fifo-low")
            service.submit(ghz(3), JobRequirements(fidelity_threshold=0.9, priority=5), shots=10, name="prio")
            service.submit(
                ghz(3),
                JobRequirements(fidelity_threshold=0.9, priority=5, deadline_s=1.0),
                shots=11,
                name="prio-deadline",
            )
            service.submit(ghz(3), 0.9, shots=12, name="fifo-late")
            engine.match_gate.set()
            service.process()
            assert engine.match_order == ["head", "prio-deadline", "prio", "fifo-low", "fifo-late"]

    def test_deadlines_compare_as_absolute_due_times(self):
        # deadline_s is relative to submission, so EDF must order by
        # submission time + deadline_s: a 0.1s deadline submitted first is
        # due *before* a 0.05s deadline submitted 0.3s later — a raw
        # relative comparison (0.05 < 0.1) would dispatch them backwards.
        engine = StubEngine()
        engine.match_gate.clear()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            service.submit(ghz(3), 0.9, shots=8, name="head")
            assert engine.match_started.wait(5)
            service.submit(
                ghz(3), JobRequirements(fidelity_threshold=0.9, deadline_s=0.1), shots=9, name="due-first"
            )
            time.sleep(0.3)
            service.submit(
                ghz(3),
                JobRequirements(fidelity_threshold=0.9, deadline_s=0.05),
                shots=10,
                name="short-but-later",
            )
            engine.match_gate.set()
            service.process()
            assert engine.match_order == ["head", "due-first", "short-but-later"]

    def test_priority_is_part_of_the_dedup_key(self):
        high = JobRequirements(fidelity_threshold=0.9, priority=5)
        low = JobRequirements(fidelity_threshold=0.9)
        from repro.service import JobSpec

        assert JobSpec(circuit=ghz(3), requirements=high, shots=8).dedup_key() != (
            JobSpec(circuit=ghz(3), requirements=low, shots=8).dedup_key()
        )

    def test_invalid_priority_and_deadline_rejected(self):
        with pytest.raises(ServiceError):
            JobRequirements(priority=1.5)
        with pytest.raises(ServiceError):
            JobRequirements(deadline_s=0.0)

    def test_priority_then_deadline_then_fifo_at_workers_zero(self):
        # The inline dispatch step pops the same queue as the dispatcher
        # thread, so priority and deadline order dispatch at workers=0 too.
        engine = StubEngine()
        with QRIOService(three_device_testbed(), engine) as service:
            service.submit(ghz(3), 0.9, shots=8, name="first")
            service.submit(
                ghz(3),
                JobRequirements(fidelity_threshold=0.9, priority=5, deadline_s=30.0),
                shots=9,
                name="prio-late",
            )
            service.submit(
                ghz(3),
                JobRequirements(fidelity_threshold=0.9, priority=5, deadline_s=1.0),
                shots=10,
                name="prio-soon",
            )
            service.submit(ghz(3), JobRequirements(fidelity_threshold=0.9, priority=9), shots=11, name="vip")
            service.submit(ghz(3), 0.9, shots=12, name="last")
            service.process()
            assert engine.match_order == ["vip", "prio-soon", "prio-late", "first", "last"]


class TestDeviceLanes:
    def test_same_device_jobs_never_overlap(self):
        engine = StubEngine(run_seconds=0.02)
        with QRIOService(three_device_testbed(), engine, workers=4) as service:
            for index in range(6):
                service.submit(ghz(3), 0.9, shots=8 + index)
            service.process()
        # All six jobs were placed on the first device: its lane must have
        # run them strictly one at a time even with four workers available.
        assert engine.run_calls == 6
        assert len(engine.max_active_by_device) == 1
        assert max(engine.max_active_by_device.values()) == 1

    def test_different_devices_run_concurrently(self):
        engine = StubEngine(route=_round_robin(3), run_seconds=0.05)
        with QRIOService(three_device_testbed(), engine, workers=3) as service:
            for index in range(6):
                service.submit(ghz(3), 0.9, shots=8 + index)
            service.process()
        assert engine.max_active_total >= 2  # lanes overlapped in wall-clock time
        assert all(peak == 1 for peak in engine.max_active_by_device.values())

    def test_engine_without_concurrent_run_support_is_serialized(self):
        engine = StubEngine(route=_round_robin(3), run_seconds=0.02)
        engine.supports_concurrent_run = False
        with QRIOService(three_device_testbed(), engine, workers=3) as service:
            for index in range(6):
                service.submit(ghz(3), 0.9, shots=8 + index)
            service.process()
        assert engine.max_active_total == 1  # global run lock engaged

    def test_batch_dedup_group_is_one_unit_of_pool_work(self):
        engine = StubEngine()
        with QRIOService(three_device_testbed(), engine, workers=2) as service:
            handles = service.submit_batch([ghz(3) for _ in range(8)], 0.9, shots=16)
            service.process()
            assert engine.match_calls == 1 and engine.run_calls == 1
            results = [handle.result() for handle in handles]
            assert all(result.group_size == 8 for result in results)
            assert sum(result.deduplicated for result in results) == 7
            assert service.stats()["jobs_deduplicated"] == 7


class TestFailuresAndShutdown:
    class _CrashingEngine(StubEngine):
        def run(self, placement):
            raise KeyError("engine bug")

    def test_worker_crash_fails_handles_and_records_exception(self):
        engine = self._CrashingEngine()
        with QRIOService(three_device_testbed(), engine, workers=1) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            status = handle.wait()
            assert handle.failed()
            assert "crashed" in status.error
            assert isinstance(handle.exception, KeyError)

    def test_infeasible_job_fails_in_matching_without_lane_work(self):
        class NoDeviceEngine(StubEngine):
            def match(self, spec, job_name):
                return Placement(job_name=job_name, spec=spec, device=None, num_feasible=0)

        engine = NoDeviceEngine()
        with QRIOService(three_device_testbed(), engine, workers=2) as service:
            handle = service.submit(ghz(3), 0.9, shots=8)
            handle.wait()
            assert handle.failed()
            assert engine.run_calls == 0

    def test_close_drains_then_rejects_new_submissions(self):
        engine = StubEngine()
        service = QRIOService(three_device_testbed(), engine, workers=2)
        handles = [service.submit(ghz(3), 0.9, shots=8 + index) for index in range(4)]
        service.close()
        assert all(handle.done() for handle in handles)  # close = drain, not abort
        with pytest.raises(ServiceError, match="closed"):
            service.submit(ghz(3), 0.9, shots=99)
        service.close()  # idempotent

    def test_process_with_foreign_handle_raises(self):
        with QRIOService(three_device_testbed(), StubEngine(), workers=1) as service:
            with QRIOService(three_device_testbed(), StubEngine(), workers=1) as other:
                foreign = other.submit(ghz(3), 0.9, shots=8)
                with pytest.raises(ServiceError, match="does not belong"):
                    service.process(foreign)


class TestRealEngines:
    """The runtime is engine-agnostic: spot-check the real adapters."""

    def test_orchestrator_engine_under_workers_matches_sync_results(self):
        fleet = three_device_testbed()
        sync = QRIOService(fleet, OrchestratorEngine(seed=11, canary_shots=64))
        sync_result = sync.submit(ghz(3), 0.8, shots=64).result()
        with QRIOService(
            three_device_testbed(), OrchestratorEngine(seed=11, canary_shots=64), workers=2
        ) as concurrent:
            concurrent_result = concurrent.submit(ghz(3), 0.8, shots=64).result()
        assert concurrent_result.device == sync_result.device
        assert concurrent_result.counts == sync_result.counts

    def test_cloud_engine_with_latency_overlaps_devices(self):
        engine = DeviceLatencyEngine(
            CloudEngine(
                policy="round-robin",
                config=CloudSimulationConfig(fidelity_report="none", seed=7),
            ),
            latency_s=0.02,
        )
        with QRIOService(three_device_testbed(), engine, workers=3) as service:
            handles = [service.submit(ghz(3), 0.5, shots=8 + index) for index in range(9)]
            service.process()
            assert all(handle.done() for handle in handles)
        records = engine.inner.simulation_result().records
        assert len(records) == 9
        # Round-robin spread every device's lane with work.
        assert len({record.device for record in records}) == 3

    def test_load_aware_cloud_routing_matches_serial_run(self):
        # The discrete-event session does its queueing bookkeeping in
        # arrival order inside the serialized MATCHING stage, so a
        # load-aware policy must route a concurrent run exactly like the
        # synchronous one (concurrency changes when jobs run, never where).
        def routed(workers):
            engine = CloudEngine(
                policy="least-loaded",
                config=CloudSimulationConfig(fidelity_report="none", seed=5),
                inter_arrival_s=0.5,
            )
            with QRIOService(three_device_testbed(), engine, workers=workers) as service:
                for index in range(12):
                    service.submit(ghz(3), 0.5, shots=8 + index)
                service.process()
                return [record.device for record in engine.simulation_result().records]

        assert routed(0) == routed(3)

    def test_qrio_facade_service_accepts_workers(self):
        from repro import QRIO

        qrio = QRIO(cluster_name="runtime-facade", canary_shots=64, seed=9)
        qrio.register_devices(three_device_testbed())
        service = qrio.service(workers=2)
        assert service.is_concurrent and service.workers == 2
        assert qrio.service() is service  # default call returns the cached one
        with pytest.raises(ServiceError, match="cannot be reconfigured"):
            qrio.service(workers=4)
        handle = qrio.submit(ghz(3), 0.8, shots=32)
        assert handle.wait().state == JobState.DONE
        service.close()


class TestCapacitySaturation:
    """A node that is only full is transient: the dispatcher waits, not fails."""

    class _SaturationGatedEngine(DeviceLatencyEngine):
        """Holds every run until the dispatcher has seen the whole fleet full."""

        def __init__(self, inner, latency_s):
            super().__init__(inner, latency_s=latency_s)
            self.saturated = threading.Event()

        def match(self, spec, job_name):
            placement = super().match(spec, job_name)
            if placement.saturated:
                self.saturated.set()
            return placement

        def run(self, placement):
            assert self.saturated.wait(10), "the fleet never saturated"
            return super().run(placement)

    @staticmethod
    def _service(engine):
        return QRIOService(generate_fleet(limit=2, seed=17), engine, workers=2)

    def test_burst_beyond_node_capacity_completes(self):
        # Each job takes a whole node's CPU, so two devices hold two jobs and
        # the third match finds the fleet full while both lanes are held.
        engine = self._SaturationGatedEngine(
            OrchestratorEngine(seed=17, canary_shots=64), latency_s=0.01
        )
        with self._service(engine) as service:
            handles = [
                service.submit(
                    ghz(2 + index % 2),
                    JobRequirements(cpu_millicores=4000),
                    shots=32 + index,
                    name=f"burst-{index}",
                )
                for index in range(6)
            ]
            service.process()
            assert engine.saturated.is_set()
            assert [handle.status().state for handle in handles] == [JobState.DONE] * 6
            for handle in handles:
                states = [event.state for event in handle.events()]
                assert states.count(JobState.MATCHING) == 1
            rows = service.tenants_report()["tenants"]
            assert all(row["queued"] == 0 and row["inflight"] == 0 for row in rows.values())

    def test_job_that_can_never_fit_still_fails(self):
        engine = DeviceLatencyEngine(OrchestratorEngine(seed=17, canary_shots=64), latency_s=0.05)
        with self._service(engine) as service:
            running = service.submit(ghz(2), JobRequirements(), shots=32, name="fits")
            oversized = service.submit(
                ghz(2), JobRequirements(cpu_millicores=5000), shots=33, name="too-big"
            )
            service.process()
            assert running.status().state == JobState.DONE
            status = oversized.status()
            assert status.state == JobState.FAILED
            assert "no feasible device" in status.error
