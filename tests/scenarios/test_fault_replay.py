"""Fault-augmented replays: deterministic, rerouting, resilience-reporting."""

from __future__ import annotations

import pytest

from repro.backends import three_device_testbed
from repro.scenarios import (
    CalibrationJump,
    DeviceOutage,
    PoissonProcess,
    ScenarioRunner,
    StragglerSlowdown,
    Trace,
    generate_requests,
)
from repro.workloads import nisq_mix_suite

ENGINES = ("orchestrator", "cloud")


def small_trace(events=(), num_jobs=8, seed=11):
    requests = generate_requests(
        PoissonProcess(rate_per_hour=240.0),
        num_jobs=num_jobs,
        suite=nisq_mix_suite(),
        seed=seed,
        shots=64,
    )
    return Trace.from_requests("fault-replay-test", requests, events=events)


@pytest.fixture(scope="module")
def fleet_names():
    return sorted(backend.name for backend in three_device_testbed())


@pytest.fixture(scope="module")
def hostile_trace(fleet_names):
    base = small_trace()
    span = base.jobs[-1].arrival_time
    return small_trace(
        events=(
            StragglerSlowdown(time_s=0.0, device=fleet_names[2], duration_s=span + 1.0, factor=2.0),
            DeviceOutage(time_s=0.25 * span, device=fleet_names[0], duration_s=0.5 * span),
            CalibrationJump(time_s=0.6 * span, device=fleet_names[1]),
        )
    )


def runner(engine, **kwargs):
    kwargs.setdefault("seed", 17)
    kwargs.setdefault("canary_shots", 64)
    kwargs.setdefault("fidelity_report", "none")
    return ScenarioRunner(three_device_testbed(), engine=engine, **kwargs)


class TestFaultReplayDeterminism:
    @pytest.mark.chaos
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_across_replays(self, engine, hostile_trace):
        first = runner(engine).replay(hostile_trace)
        second = runner(engine).replay(hostile_trace)
        assert first.routing_signature() == second.routing_signature()
        assert first.results_signature() == second.results_signature()
        assert first.resilience is not None
        if engine == "cloud":
            # Simulated clock: the wait-derived metrics replay exactly too.
            assert first.resilience == second.resilience
        else:
            # Wall-clock engines: waits jitter, the structural census must not.
            for key in ("events", "outages", "jobs_during_outage", "jobs_failed", "jobs_rerouted"):
                assert first.resilience[key] == second.resilience[key]

    @pytest.mark.chaos
    @pytest.mark.parametrize("engine", ENGINES)
    def test_concurrent_replay_matches_synchronous(self, engine, hostile_trace):
        synchronous = runner(engine, workers=0).replay(hostile_trace)
        concurrent = runner(engine, workers=2).replay(hostile_trace)
        assert concurrent.routing_signature() == synchronous.routing_signature()
        assert concurrent.results_signature() == synchronous.results_signature()

    def test_policy_replay_is_deterministic_too(self, hostile_trace):
        first = runner("cloud", policy="round-robin").replay(hostile_trace)
        second = runner("cloud", policy="round-robin").replay(hostile_trace)
        assert first.results_signature() == second.results_signature()


class TestFaultEffects:
    def test_full_span_outage_empties_the_device(self, fleet_names):
        base = small_trace()
        span = base.jobs[-1].arrival_time
        trace = small_trace(
            events=(DeviceOutage(time_s=0.0, device=fleet_names[1], duration_s=span + 1.0),)
        )
        report = runner("cloud").replay(trace)
        assert report.failed == 0  # two devices absorb everything
        assert report.jobs_per_device.get(fleet_names[1], 0) == 0
        assert report.resilience["jobs_during_outage"] == report.jobs
        assert report.resilience["jobs_rerouted"] == report.jobs

    @pytest.mark.parametrize("engine", ENGINES)
    def test_calibration_jump_changes_results(self, engine, fleet_names):
        base = small_trace()
        span = base.jobs[-1].arrival_time
        jump = CalibrationJump(
            time_s=0.3 * span, device=fleet_names[0], two_qubit_spread=0.9
        )
        faulted = small_trace(events=(jump,))
        kwargs = {"fidelity_report": "esp"} if engine == "cloud" else {}
        plain = runner(engine, **kwargs).replay(base)
        shocked = runner(engine, **kwargs).replay(faulted)
        assert shocked.results_signature() != plain.results_signature()

    def test_fault_free_twin_has_no_resilience(self, hostile_trace):
        report = runner("cloud").replay(hostile_trace.without_events())
        assert report.resilience is None
        assert "slo_violations" not in report.row()

    def test_resilience_row_columns(self, hostile_trace):
        report = runner("cloud").replay(hostile_trace)
        row = report.row()
        for key in ("slo_violations", "jobs_failed", "jobs_rerouted", "p99_outage_wait_s", "recovery_s"):
            assert key in row

    def test_straggler_stretches_cloud_waits(self, fleet_names):
        base = small_trace()
        span = base.jobs[-1].arrival_time
        crawl = small_trace(
            events=tuple(
                StragglerSlowdown(
                    time_s=0.0, device=device, duration_s=span + 1.0, factor=50.0
                )
                for device in fleet_names
            )
        )
        plain = runner("cloud").replay(base)
        slowed = runner("cloud").replay(crawl)
        assert slowed.makespan_s > plain.makespan_s

    def test_fault_replay_does_not_contaminate_later_replays(self, hostile_trace):
        shared = runner("cloud")
        before = shared.replay(hostile_trace.without_events())
        shared.replay(hostile_trace)  # mutates only per-replay fleet copies
        after = shared.replay(hostile_trace.without_events())
        assert after.results_signature() == before.results_signature()
