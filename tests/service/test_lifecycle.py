"""JobHandle lifecycle: state transitions, failure paths, early result()."""

import pytest

from repro.backends import three_device_testbed
from repro.circuits import ghz
from repro.service import (
    ALLOWED_TRANSITIONS,
    JobRequirements,
    JobState,
    OrchestratorEngine,
    QRIOService,
)
from repro.utils.exceptions import JobFailedError, JobNotCompletedError, ServiceError


@pytest.fixture()
def service():
    return QRIOService(three_device_testbed(), OrchestratorEngine(seed=11, canary_shots=64))


class TestLifecycleHappyPath:
    def test_submit_returns_queued_handle(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        assert handle.state == JobState.QUEUED
        assert not handle.finished
        assert [event.state for event in handle.events()] == [JobState.QUEUED]

    def test_full_transition_sequence(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        result = handle.result()
        assert handle.state == JobState.DONE
        assert [event.state for event in handle.events()] == [
            JobState.QUEUED,
            JobState.MATCHING,
            JobState.RUNNING,
            JobState.DONE,
        ]
        assert result.device is not None
        assert sum(result.counts.values()) == 64
        assert result.engine == "orchestrator"

    def test_every_transition_is_legal(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        handle.result()
        events = handle.events()
        for previous, current in zip(events, events[1:]):
            assert current.state in ALLOWED_TRANSITIONS[previous.state]

    def test_status_snapshot_tracks_device_and_score(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        assert handle.status().device is None
        handle.wait()
        status = handle.status()
        assert status.state == JobState.DONE
        assert status.device is not None
        assert status.finished

    def test_terminal_states_reject_further_transitions(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        handle.result()
        with pytest.raises(ServiceError):
            handle._transition(JobState.RUNNING, "illegal")
        assert ALLOWED_TRANSITIONS[JobState.DONE] == ()
        assert ALLOWED_TRANSITIONS[JobState.FAILED] == ()


class TestResultBeforeCompletion:
    def test_result_without_wait_raises(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        with pytest.raises(JobNotCompletedError):
            handle.result(wait=False)
        # The failed lookup must not have mutated the lifecycle.
        assert handle.state == JobState.QUEUED

    def test_result_with_wait_processes_the_queue(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64)
        assert handle.result(wait=True).device is not None
        assert handle.state == JobState.DONE

    def test_fifo_order_is_preserved_when_waiting_on_a_later_job(self, service):
        first = service.submit(ghz(3), 0.8, shots=64)
        second = service.submit(ghz(4), 0.8, shots=64)
        second.result()
        # Driving the later job first still processes the earlier one first.
        assert first.state == JobState.DONE


class TestFailurePaths:
    def test_infeasible_constraints_fail_without_running(self, service):
        handle = service.submit(
            ghz(3),
            JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=1e-6),
            shots=64,
        )
        status = handle.wait()
        assert handle.failed
        assert status.error is not None
        assert "no feasible device" in status.error
        states = [event.state for event in handle.events()]
        assert JobState.RUNNING not in states
        assert states[-1] == JobState.FAILED

    def test_result_of_failed_job_raises_job_failed(self, service):
        handle = service.submit(
            ghz(3),
            JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=1e-6),
            shots=64,
        )
        with pytest.raises(JobFailedError, match="no feasible device"):
            handle.result()

    def test_oversized_circuit_fails_matching(self):
        service = QRIOService(three_device_testbed(num_qubits=5), OrchestratorEngine(seed=3, canary_shots=64))
        handle = service.submit(ghz(9), 0.9, shots=32)
        handle.wait()
        assert handle.failed

    def test_failure_counts_in_service_stats(self, service):
        handle = service.submit(
            ghz(3),
            JobRequirements(fidelity_threshold=0.5, max_avg_two_qubit_error=1e-6),
            shots=64,
        )
        handle.wait()
        stats = service.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_succeeded"] == 0


class TestEngineCrashes:
    """Engine bugs (non-library exceptions) terminate lifecycles, at every worker count.

    The crash is recorded on the handles, never raised out of ``process()``:
    the handle is FAILED with a "crashed" reason, ``handle.exception`` is the
    engine's own exception, and ``result()`` raises ``JobFailedError``
    chained from it.
    """

    class _CrashingEngine:
        name = "crashing"
        supports_concurrent_run = True

        def __init__(self, stage):
            self.stage = stage
            self.error = KeyError(f"engine bug in {stage}")

        def attach(self, fleet):
            self._fleet = list(fleet)

        def fleet(self):
            return list(self._fleet)

        def match(self, spec, job_name):
            from repro.service import Placement

            if self.stage == "match":
                raise self.error
            return Placement(
                job_name=job_name, spec=spec, device=self._fleet[0].name, num_feasible=1
            )

        def run(self, placement):
            raise self.error

    @pytest.mark.parametrize("stage", ["match", "run"])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_crash_fails_the_group_and_is_recorded(self, workers, stage):
        engine = self._CrashingEngine(stage)
        with QRIOService(three_device_testbed(), engine, workers=workers) as service:
            handle = service.submit(ghz(3), 0.8, shots=32)
            service.process()  # the crash does not propagate out of the drain
            assert handle.failed
            assert "crashed" in handle.status().error
            assert handle.exception is engine.error
            with pytest.raises(JobFailedError) as caught:
                handle.result(wait=False)
            assert caught.value.__cause__ is engine.error
            # The service survives the crash and keeps dispatching.
            assert service.submit(ghz(3), 0.8, shots=16).wait().state == JobState.FAILED


class TestServiceIntrospection:
    def test_job_lookup_by_name(self, service):
        handle = service.submit(ghz(3), 0.8, shots=64, name="lookup-me")
        assert service.job("lookup-me") is handle
        with pytest.raises(ServiceError):
            service.job("never-submitted")

    def test_duplicate_names_are_rejected(self, service):
        service.submit(ghz(3), 0.8, shots=64, name="dup")
        with pytest.raises(ServiceError):
            service.submit(ghz(3), 0.8, shots=64, name="dup")

    def test_rejected_batch_leaves_the_service_untouched(self, service):
        from repro.service import JobSpec

        specs = [
            JobSpec(circuit=ghz(3), shots=32, name="atomic"),
            JobSpec(circuit=ghz(4), shots=32, name="atomic"),
        ]
        before = service.stats()["submitted"]
        with pytest.raises(ServiceError):
            service.submit_specs(specs)
        assert service.stats()["submitted"] == before
        assert service.stats()["pending_groups"] == 0
        with pytest.raises(ServiceError):
            service.job("atomic")

    def test_auto_names_skip_user_claimed_names(self, service):
        claimed = service.submit(ghz(3), 0.8, shots=32, name="svc-0001")
        auto = service.submit(ghz(3), 0.8, shots=32)
        assert auto.name != claimed.name

    def test_seed_with_explicit_engine_is_rejected(self):
        with pytest.raises(ServiceError, match="seed only configures the default engine"):
            QRIOService(three_device_testbed(), OrchestratorEngine(seed=3), seed=3)

    def test_jobs_filter_by_state(self, service):
        done = service.submit(ghz(3), 0.8, shots=64)
        done.result()
        queued = service.submit(ghz(4), 0.8, shots=64)
        assert done in service.jobs(JobState.DONE)
        assert queued in service.jobs(JobState.QUEUED)
