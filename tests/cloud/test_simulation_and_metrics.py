"""Tests for the cloud simulator, policy comparison and metrics."""

from __future__ import annotations

import math

import pytest

from repro.cloud import (
    CloudSimulationConfig,
    CloudSimulator,
    compare_policies,
    jain_fairness_index,
    render_policy_comparison,
    summarise_waits,
    wait_fairness,
)
from repro.policies import resolve_policy
from repro.utils.exceptions import ClusterError
from repro.workloads import clifford_suite
from repro.workloads.arrivals import ArrivalSpec, generate_trace


class TestMetrics:
    def test_jain_index_equal_allocations(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_index_single_dominant_user(self):
        assert jain_fairness_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_index_validation(self):
        with pytest.raises(ClusterError):
            jain_fairness_index([])
        with pytest.raises(ClusterError):
            jain_fairness_index([-1.0])
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_summarise_waits(self):
        summary = summarise_waits([0.0, 10.0, 20.0, 30.0])
        assert summary["mean"] == pytest.approx(15.0)
        assert summary["max"] == 30.0
        assert summarise_waits([]) == {
            "mean": 0.0, "median": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_wait_fairness_prefers_even_waits(self):
        even = wait_fairness({"a": [10.0, 10.0], "b": [10.0]})
        skewed = wait_fairness({"a": [0.0], "b": [5000.0, 5000.0]})
        assert even > skewed


class TestCloudSimulator:
    def test_every_job_gets_a_record(self, small_cloud_fleet, short_trace):
        simulator = CloudSimulator(small_cloud_fleet, resolve_policy("random:seed=1"), CloudSimulationConfig(seed=1))
        result = simulator.run(short_trace)
        assert len(result.records) == len(short_trace)
        assert all(record.wait_time >= 0.0 for record in result.records)
        assert all(record.slot.finish_time <= result.makespan() + 1e-9 for record in result.records)
        assert sum(result.jobs_per_device().values()) == len(short_trace)

    def test_fidelity_report_modes(self, small_cloud_fleet, short_trace):
        tiny = short_trace[:3]
        none_result = CloudSimulator(
            small_cloud_fleet, resolve_policy("random:seed=2"), CloudSimulationConfig(fidelity_report="none", seed=2)
        ).run(tiny)
        assert none_result.mean_fidelity() is None
        esp_result = CloudSimulator(
            small_cloud_fleet, resolve_policy("random:seed=2"), CloudSimulationConfig(fidelity_report="esp", seed=2)
        ).run(tiny)
        assert 0.0 <= esp_result.mean_fidelity() <= 1.0
        executed = CloudSimulator(
            small_cloud_fleet,
            resolve_policy("random:seed=2"),
            CloudSimulationConfig(fidelity_report="execute", execution_shots=128, seed=2),
        ).run(tiny)
        assert all(0.0 <= record.fidelity <= 1.0 for record in executed.records)

    def test_fidelity_policy_reports_higher_fidelity_than_random(self, small_cloud_fleet, short_trace):
        config = CloudSimulationConfig(fidelity_report="esp", seed=3)
        fidelity_result = CloudSimulator(small_cloud_fleet, resolve_policy("fidelity:seed=3"), config).run(short_trace)
        random_result = CloudSimulator(small_cloud_fleet, resolve_policy("random:seed=3"), config).run(short_trace)
        assert fidelity_result.mean_fidelity() >= random_result.mean_fidelity()

    def test_least_loaded_waits_no_worse_than_single_device_pileup(self, small_cloud_fleet, short_trace):
        config = CloudSimulationConfig(fidelity_report="none", seed=4)
        least = CloudSimulator(small_cloud_fleet, resolve_policy("least-loaded"), config).run(short_trace)
        pileup = CloudSimulator(small_cloud_fleet, resolve_policy("fidelity:seed=4"), config).run(short_trace)
        assert least.mean_wait() <= pileup.mean_wait() + 1e-9

    def test_queue_aware_policy_spreads_load_relative_to_pure_fidelity(self, small_cloud_fleet, short_trace):
        config = CloudSimulationConfig(fidelity_report="esp", seed=5)
        pure = CloudSimulator(small_cloud_fleet, resolve_policy("fidelity:seed=5"), config).run(short_trace)
        aware = CloudSimulator(
            small_cloud_fleet,
            resolve_policy("fidelity:queue_weight=0.5,wait_scale_s=300.0,seed=5"),
            config,
        ).run(short_trace)
        assert len(aware.jobs_per_device()) >= len(pure.jobs_per_device())
        assert aware.mean_wait() <= pure.mean_wait() + 1e-9

    def test_utilisation_is_bounded(self, small_cloud_fleet, short_trace):
        result = CloudSimulator(
            small_cloud_fleet, resolve_policy("least-loaded"), CloudSimulationConfig(fidelity_report="none", seed=6)
        ).run(short_trace)
        for value in result.device_utilisation().values():
            assert 0.0 <= value <= 1.0
        assert 0.0 < result.fairness() <= 1.0

    def test_summary_row_has_all_columns(self, small_cloud_fleet, short_trace):
        result = CloudSimulator(
            small_cloud_fleet, resolve_policy("random:seed=7"), CloudSimulationConfig(fidelity_report="none", seed=7)
        ).run(short_trace[:5])
        summary = result.summary()
        assert summary["jobs"] == 5
        assert math.isnan(summary["mean_fidelity"])
        assert set(summary) >= {"policy", "mean_wait_s", "p95_wait_s", "fairness", "makespan_s"}

    def test_rejects_empty_fleet_and_bad_config(self):
        with pytest.raises(ClusterError):
            CloudSimulator([], resolve_policy("random:seed=1"))
        with pytest.raises(ClusterError):
            CloudSimulationConfig(fidelity_report="maybe")
        with pytest.raises(ClusterError):
            CloudSimulationConfig(execution_shots=0)


class TestComparePolicies:
    def test_compare_policies_runs_each_policy_once(self, small_cloud_fleet):
        trace = generate_trace(ArrivalSpec(num_jobs=12, suite=clifford_suite()), seed=21)
        policies = [resolve_policy("random:seed=1"), resolve_policy("least-loaded"), resolve_policy("fidelity:seed=1")]
        results = compare_policies(small_cloud_fleet, trace, policies, CloudSimulationConfig(seed=1))
        assert set(results) == {policy.name for policy in policies}
        for result in results.values():
            assert len(result.records) == 12

    def test_render_policy_comparison_mentions_every_policy(self, small_cloud_fleet):
        trace = generate_trace(ArrivalSpec(num_jobs=6, suite=clifford_suite()), seed=22)
        policies = [resolve_policy("random:seed=2"), resolve_policy("least-loaded")]
        results = compare_policies(small_cloud_fleet, trace, policies, CloudSimulationConfig(fidelity_report="none", seed=2))
        table = render_policy_comparison(results)
        assert "Cloud policy comparison" in table
        for policy in policies:
            assert policy.name in table
