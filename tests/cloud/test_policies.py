"""The registry placement policies routing arrivals through a cloud session."""

from __future__ import annotations

import pytest

from repro.backends import named_topology_device
from repro.circuits import ghz
from repro.cloud import CloudSimulationConfig, CloudSimulator
from repro.experiments.cloud_policies import CLOUD_POLICY_SPECS
from repro.policies import FidelityPlacementPolicy, resolve_policy
from repro.scenarios.arrivals import ArrivalSpec, JobRequest, generate_trace
from repro.utils.exceptions import SchedulingError
from repro.workloads import clifford_suite


def _session(fleet, policy):
    simulator = CloudSimulator(list(fleet), resolve_policy(policy), CloudSimulationConfig(fidelity_report="none"))
    return simulator.open_session()


def _one_request(num_jobs: int = 1):
    trace = generate_trace(ArrivalSpec(num_jobs=num_jobs, suite=clifford_suite()), seed=77)
    return trace if num_jobs > 1 else trace[0]


class TestFeasibility:
    def test_feasible_devices_filters_by_qubit_count(self, small_cloud_fleet):
        request = _one_request()
        decision = _session(small_cloud_fleet, "least-loaded").route(request)
        by_name = {backend.name: backend for backend in small_cloud_fleet}
        assert decision.ranked
        assert all(by_name[entry.device].num_qubits >= request.circuit.num_qubits for entry in decision.ranked)
        assert {entry.device for entry in decision.ranked} | set(decision.rejected) == set(by_name)

    def test_policies_raise_when_nothing_fits(self):
        tiny = named_topology_device("line", 2, two_qubit_error=0.01, name="tiny")
        request = JobRequest(
            index=0,
            arrival_time=0.0,
            workload_key="ghz4",
            circuit=ghz(4),
            strategy="fidelity",
            fidelity_threshold=0.0,
            shots=64,
            user="u0",
        )
        with pytest.raises(SchedulingError):
            _session([tiny], "random:seed=1").route(request)


class TestSimplePolicies:
    def test_random_policy_only_picks_feasible_devices(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "random:seed=5")
        names = {backend.name for backend in small_cloud_fleet}
        for request in _one_request(num_jobs=10):
            assert session.route(request).device in names

    def test_round_robin_cycles_through_devices(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "round-robin")
        request = _one_request()
        choices = [session.route(request).device for _ in range(len(small_cloud_fleet) * 2)]
        feasible = sorted(
            backend.name for backend in small_cloud_fleet if backend.num_qubits >= request.circuit.num_qubits
        )
        assert choices[: len(feasible)] == feasible
        assert choices[: len(feasible)] == choices[len(feasible): 2 * len(feasible)]

    def test_least_loaded_prefers_the_empty_queue(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "least-loaded")
        # Load every queue except cloud_mid with an hour of backlog.
        for backend in small_cloud_fleet:
            if backend.name != "cloud_mid":
                session.inject_backlog(backend.name, at_time=0.0, backlog_s=3600.0)
        assert session.route(_one_request()).device == "cloud_mid"


class TestFidelityPolicies:
    def test_fidelity_policy_picks_the_least_noisy_device(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "fidelity:seed=3")
        for request in _one_request(num_jobs=5):
            assert session.route(request).device == "cloud_good"

    def test_fidelity_estimates_are_cached_per_workload_and_device(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "fidelity:seed=3")
        trace = _one_request(num_jobs=8)
        for request in trace:
            session.route(request)
        distinct_workloads = {request.workload_key for request in trace}
        assert len(session._fidelity_cache) <= len(distinct_workloads) * len(small_cloud_fleet)
        before = len(session._fidelity_cache)
        session.route(trace[-1])
        assert len(session._fidelity_cache) == before

    def test_invalidating_the_cache_bumps_the_epoch(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "fidelity:seed=3")
        request = _one_request()
        session.route(request)
        before = len(session._fidelity_cache)
        session.notice_calibration_change()
        session.route(request)
        assert len(session._fidelity_cache) > before

    def test_canary_estimator_is_supported(self, small_cloud_fleet):
        policy = resolve_policy("fidelity:estimator=canary,canary_shots=64,seed=3")
        session = _session(small_cloud_fleet[:2], policy)
        assert session.route(_one_request()).device in {"cloud_good", "cloud_mid"}
        assert "canary" in policy.name

    def test_rejects_unknown_estimator(self):
        with pytest.raises(SchedulingError):
            resolve_policy("fidelity:estimator=tarot")


class TestQueueAwareFidelityPolicy:
    def test_zero_wait_weight_matches_fidelity_policy(self, small_cloud_fleet):
        plain = _session(small_cloud_fleet, "fidelity:seed=3")
        aware = _session(small_cloud_fleet, "fidelity:queue_weight=0.0,seed=3")
        for request in _one_request(num_jobs=5):
            assert aware.route(request).device == plain.route(request).device

    def test_large_backlog_diverts_jobs_away_from_the_best_device(self, small_cloud_fleet):
        session = _session(small_cloud_fleet, "fidelity:queue_weight=1.0,wait_scale_s=600.0,seed=3")
        session.inject_backlog("cloud_good", at_time=0.0, backlog_s=24 * 3600.0)
        assert session.route(_one_request()).device != "cloud_good"

    def test_utility_decreases_with_backlog(self, small_cloud_fleet):
        # The score is the complement of the fidelity/wait utility: a lower
        # utility shows up as a higher score.
        session = _session(small_cloud_fleet, "fidelity:queue_weight=0.5,seed=3")
        request = _one_request()
        before = session.route(request).scores["cloud_good"]
        session.inject_backlog("cloud_good", at_time=0.0, backlog_s=3600.0)
        after = session.route(request).scores["cloud_good"]
        assert after > before

    def test_validation(self):
        with pytest.raises(SchedulingError):
            FidelityPlacementPolicy(queue_weight=-0.1)
        with pytest.raises(SchedulingError):
            FidelityPlacementPolicy(wait_scale_s=0.0)


class TestRoster:
    def test_builtin_policies_have_unique_names(self):
        names = [resolve_policy(spec, seed=1).name for spec in CLOUD_POLICY_SPECS]
        assert len(names) == len(set(names))
        assert "fidelity[esp, queue_weight=0.3]" in names
