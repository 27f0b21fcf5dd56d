"""Tests for the cloud allocation policies."""

from __future__ import annotations

import pytest

from repro.cloud import (
    AllocationContext,
    ExecutionTimeModel,
    FidelityPolicy,
    LeastLoadedPolicy,
    QueueAwareFidelityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    build_queues,
    builtin_policies,
)
from repro.scenarios.arrivals import ArrivalSpec, generate_trace
from repro.utils.exceptions import SchedulingError
from repro.workloads import clifford_suite


def _context(fleet) -> AllocationContext:
    return AllocationContext(fleet=list(fleet), queues=build_queues(list(fleet)), time_model=ExecutionTimeModel())


def _one_request(num_jobs: int = 1):
    trace = generate_trace(ArrivalSpec(num_jobs=num_jobs, suite=clifford_suite()), seed=77)
    return trace if num_jobs > 1 else trace[0]


class TestFeasibility:
    def test_feasible_devices_filters_by_qubit_count(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        request = _one_request()
        feasible = context.feasible_devices(request)
        assert feasible
        assert all(backend.num_qubits >= request.circuit.num_qubits for backend in feasible)

    def test_policies_raise_when_nothing_fits(self, small_cloud_fleet):
        tiny_fleet = [backend for backend in small_cloud_fleet if backend.num_qubits < 4]
        assert not tiny_fleet
        context = _context([])
        request = _one_request()
        context.fleet = []
        with pytest.raises(Exception):
            RandomPolicy(seed=1).select(request, context)


class TestSimplePolicies:
    def test_random_policy_only_picks_feasible_devices(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        policy = RandomPolicy(seed=5)
        names = {backend.name for backend in small_cloud_fleet}
        for request in _one_request(num_jobs=10):
            assert policy.select(request, context) in names

    def test_round_robin_cycles_through_devices(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        policy = RoundRobinPolicy()
        request = _one_request()
        choices = [policy.select(request, context) for _ in range(len(small_cloud_fleet) * 2)]
        feasible = sorted(backend.name for backend in context.feasible_devices(request))
        assert choices[: len(feasible)] == feasible
        assert choices[: len(feasible)] == choices[len(feasible): 2 * len(feasible)]

    def test_least_loaded_prefers_the_empty_queue(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        request = _one_request()
        # Load every queue except cloud_mid with an hour of backlog.
        for name, queue in context.queues.items():
            if name != "cloud_mid":
                queue.enqueue("backlog", arrival_time=0.0, service_time=3600.0)
        assert LeastLoadedPolicy().select(request, context) == "cloud_mid"


class TestFidelityPolicies:
    def test_fidelity_policy_picks_the_least_noisy_device(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        policy = FidelityPolicy(estimator="esp", seed=3)
        for request in _one_request(num_jobs=5):
            assert policy.select(request, context) == "cloud_good"

    def test_fidelity_estimates_are_cached_per_workload_and_device(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        policy = FidelityPolicy(estimator="esp", seed=3)
        trace = _one_request(num_jobs=8)
        for request in trace:
            policy.select(request, context)
        distinct_workloads = {request.workload_key for request in trace}
        assert len(context.fidelity_cache) <= len(distinct_workloads) * len(small_cloud_fleet)
        before = len(context.fidelity_cache)
        for request in trace:
            policy.select(request, context)
        assert len(context.fidelity_cache) == before

    def test_invalidating_the_cache_bumps_the_epoch(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        policy = FidelityPolicy(estimator="esp", seed=3)
        request = _one_request()
        policy.select(request, context)
        before = len(context.fidelity_cache)
        context.invalidate_fidelity_cache()
        policy.select(request, context)
        assert len(context.fidelity_cache) > before

    def test_canary_estimator_is_supported(self, small_cloud_fleet):
        context = _context(small_cloud_fleet[:2])
        policy = FidelityPolicy(estimator="canary", canary_shots=64, seed=3)
        request = _one_request()
        assert policy.select(request, context) in {"cloud_good", "cloud_mid"}
        assert "canary" in policy.name

    def test_rejects_unknown_estimator(self):
        with pytest.raises(SchedulingError):
            FidelityPolicy(estimator="tarot")


class TestQueueAwareFidelityPolicy:
    def test_zero_wait_weight_matches_fidelity_policy(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        plain = FidelityPolicy(estimator="esp", seed=3)
        aware = QueueAwareFidelityPolicy(wait_weight=0.0, estimator="esp", seed=3)
        for request in _one_request(num_jobs=5):
            assert aware.select(request, context) == plain.select(request, context)

    def test_large_backlog_diverts_jobs_away_from_the_best_device(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        request = _one_request()
        context.queues["cloud_good"].enqueue("backlog", arrival_time=0.0, service_time=24 * 3600.0)
        aware = QueueAwareFidelityPolicy(wait_weight=1.0, wait_scale_s=600.0, estimator="esp", seed=3)
        assert aware.select(request, context) != "cloud_good"

    def test_utility_decreases_with_backlog(self, small_cloud_fleet):
        context = _context(small_cloud_fleet)
        request = _one_request()
        aware = QueueAwareFidelityPolicy(wait_weight=0.5, estimator="esp", seed=3)
        device = context.device("cloud_good")
        before = aware.utility(request, device, context)
        context.queues["cloud_good"].enqueue("backlog", arrival_time=0.0, service_time=3600.0)
        after = aware.utility(request, device, context)
        assert after < before

    def test_validation(self):
        with pytest.raises(SchedulingError):
            QueueAwareFidelityPolicy(wait_weight=-0.1)
        with pytest.raises(SchedulingError):
            QueueAwareFidelityPolicy(wait_scale_s=0.0)


class TestRoster:
    def test_builtin_policies_have_unique_names(self):
        names = [policy.name for policy in builtin_policies(seed=1)]
        assert len(names) == len(set(names))
        assert any("QueueAware" in name for name in names)
