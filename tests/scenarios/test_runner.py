"""ScenarioRunner: bit-identical replay across engines, report semantics."""

from __future__ import annotations

import pytest

from repro.scenarios import (
    ENGINE_NAMES,
    PoissonProcess,
    ScenarioRunner,
    Trace,
    generate_requests,
    load_trace,
)
from repro.service import CloudEngine
from repro.utils.exceptions import ScenarioError
from repro.workloads import clifford_suite, nisq_mix_suite

ENGINES = ("orchestrator", "cloud")


@pytest.fixture(scope="module")
def replay_trace():
    """A small Clifford trace every engine can execute quickly."""
    requests = generate_requests(
        PoissonProcess(rate_per_hour=240.0), num_jobs=6, suite=clifford_suite(), seed=5, shots=64
    )
    return Trace.from_requests("replay", requests)


def _runner(fleet, engine, **overrides):
    options = dict(seed=7, canary_shots=64, fidelity_report="none")
    options.update(overrides)
    return ScenarioRunner(fleet, engine=engine, **options)


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_replay_is_bit_identical_under_a_fixed_seed(self, testbed_devices, replay_trace, engine):
        """The acceptance criterion: same routing AND same per-job results."""
        first = _runner(testbed_devices, engine).replay(replay_trace)
        second = _runner(testbed_devices, engine).replay(replay_trace)
        assert first.failed == 0
        assert first.routing() == second.routing()
        assert first.routing_signature() == second.routing_signature()
        assert first.results_signature() == second.results_signature()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_loaded_trace_replays_like_the_recorded_one(
        self, testbed_devices, replay_trace, tmp_path, engine
    ):
        """record → load → replay must match replaying the in-memory trace."""
        loaded = load_trace(replay_trace.save(tmp_path / f"{engine}.jsonl"))
        from_memory = _runner(testbed_devices, engine).replay(replay_trace)
        from_disk = _runner(testbed_devices, engine).replay(loaded)
        assert from_memory.routing_signature() == from_disk.routing_signature()
        assert from_memory.results_signature() == from_disk.results_signature()

    def test_different_seeds_may_differ_but_stay_internally_consistent(
        self, testbed_devices, replay_trace
    ):
        report = _runner(testbed_devices, "cloud", seed=99).replay(replay_trace)
        assert report.jobs == len(replay_trace)
        assert report.succeeded + report.failed == report.jobs


class TestCloudReplaySemantics:
    def test_trace_arrival_times_drive_the_simulated_clock(self, testbed_devices, replay_trace):
        """The cloud engine must queue jobs at their recorded arrival times."""
        report = _runner(testbed_devices, "cloud").replay(replay_trace)
        assert report.wait_clock == "simulated"
        # The simulation makespan spans at least the last arrival: jobs
        # cannot finish before they arrive.
        assert report.makespan_s >= replay_trace.jobs[-1].arrival_time
        assert report.device_utilisation is not None

    def test_matches_direct_simulator_routing(self, testbed_devices, replay_trace):
        """Scenario replay is routing-neutral vs the bare discrete-event run."""
        from repro.policies import resolve_policy
        from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator

        direct = CloudSimulator(
            testbed_devices, resolve_policy("least-loaded"), config=CloudSimulationConfig(fidelity_report="none")
        ).run(list(replay_trace.jobs))
        report = _runner(testbed_devices, "cloud").replay(replay_trace)
        assert [record.device for record in direct.records] == [
            outcome.device for outcome in report.outcomes
        ]
        # And the queueing outcome (waits) matches the bare simulation too.
        assert [record.wait_time for record in direct.records] == [
            outcome.wait_s for outcome in report.outcomes
        ]


class TestReportSemantics:
    def test_wall_clock_reports_for_executing_engines(self, testbed_devices, replay_trace):
        report = _runner(testbed_devices, "orchestrator").replay(replay_trace)
        assert report.wait_clock == "wall"
        assert report.device_utilisation is None
        assert report.makespan_s > 0.0
        assert set(report.wait_summary) >= {"mean", "p50", "p95", "p99", "max"}
        assert 0.0 < report.fairness <= 1.0
        assert sum(report.jobs_per_device.values()) == report.succeeded

    def test_policy_label_and_row(self, testbed_devices, replay_trace):
        report = _runner(testbed_devices, "cloud", policy="round-robin").replay(replay_trace)
        assert report.policy == "round-robin"
        row = report.row()
        assert row["engine"] == "cloud"
        assert row["policy"] == "round-robin"
        assert row["jobs"] == len(replay_trace)
        assert "NaN" not in report.to_json()

    def test_topology_strategy_jobs_replay(self, testbed_devices):
        """NISQ-mix traces carry topology-strategy jobs; they must schedule."""
        requests = generate_requests(
            PoissonProcess(rate_per_hour=240.0), num_jobs=5, suite=nisq_mix_suite(), seed=3, shots=32
        )
        trace = Trace.from_requests("mixed", requests)
        report = _runner(testbed_devices, "orchestrator").replay(trace)
        assert report.jobs == 5
        assert report.failed == 0

    def test_workers_replay_routes_like_synchronous(self, testbed_devices, replay_trace):
        """A concurrent replay may reorder execution, never routing."""
        synchronous = _runner(testbed_devices, "cloud").replay(replay_trace)
        concurrent = _runner(testbed_devices, "cloud", workers=2).replay(replay_trace)
        assert synchronous.routing_signature() == concurrent.routing_signature()
        assert concurrent.workers == 2

    def test_empty_trace_and_unknown_engine_are_rejected(self, testbed_devices):
        with pytest.raises(ScenarioError, match="empty"):
            ScenarioRunner(testbed_devices, engine="cloud").replay([])
        with pytest.raises(ScenarioError, match="Unknown engine"):
            ScenarioRunner(testbed_devices, engine="warp-drive")

    def test_the_retired_cluster_engine_name_is_rejected(self, testbed_devices):
        assert ENGINE_NAMES == ("orchestrator", "cloud")
        with pytest.raises(ScenarioError, match="Unknown engine 'cluster'"):
            ScenarioRunner(testbed_devices, engine="cluster")

    def test_engine_factory_is_supported(self, testbed_devices, replay_trace):
        from repro.cloud.simulation import CloudSimulationConfig

        def factory():
            return CloudEngine(config=CloudSimulationConfig(fidelity_report="none", seed=1))

        report = ScenarioRunner(testbed_devices, engine=factory).replay(replay_trace)
        assert report.engine == "cloud"
        assert report.failed == 0
