"""Tests for the extension experiments (cloud policies, drift, scalable matching)."""

from __future__ import annotations

import pytest

from repro.cloud import ArrivalSpec, CalibrationDriftModel, generate_trace
from repro.experiments import (
    ExperimentConfig,
    ablation_devices,
    cloud_testbed_fleet,
    drift_testbed_fleet,
    render_calibration_drift,
    render_cloud_policy_comparison,
    render_scalable_matching,
    run_calibration_drift,
    run_cloud_policy_comparison,
    run_scalable_matching,
)
from repro.matching import MatchBudget
from repro.workloads import clifford_suite

QUICK = ExperimentConfig(fleet_limit=6, fig6_repetitions=2, fig8_repetitions=2, shots=64, seed=123)


class TestCloudTestbeds:
    def test_cloud_testbed_fleet_size_and_determinism(self):
        fleet = cloud_testbed_fleet(6, seed=5)
        again = cloud_testbed_fleet(6, seed=5)
        assert len(fleet) == 6
        assert [device.name for device in fleet] == [device.name for device in again]
        assert all(15 <= device.num_qubits <= 27 for device in fleet)

    def test_drift_testbed_fleet(self):
        fleet = drift_testbed_fleet(4, seed=7)
        assert len(fleet) == 4
        assert len({device.name for device in fleet}) == 4

    def test_ablation_devices_have_a_dense_member(self):
        devices = ablation_devices(seed=3)
        densities = {device.name: len(device.properties.coupling_map) for device in devices}
        assert densities["ablation_dense16"] == 16 * 15 // 2


class TestCloudPolicyComparison:
    @pytest.fixture(scope="class")
    def result(self):
        fleet = cloud_testbed_fleet(4, seed=QUICK.seed)
        trace = generate_trace(
            ArrivalSpec(rate_per_hour=360.0, num_jobs=16, num_users=4, shots=128, suite=clifford_suite()),
            seed=11,
        )
        return run_cloud_policy_comparison(config=QUICK, fleet=fleet, trace=trace)

    def test_one_row_per_builtin_policy(self, result):
        assert len(result.rows) == 5
        assert result.num_jobs == 16
        assert result.num_devices == 4

    def test_fidelity_policy_maximises_reported_fidelity(self, result):
        best_fidelity = max(row.mean_fidelity for row in result.rows)
        assert result.row("fidelity[esp]").mean_fidelity == pytest.approx(best_fidelity, abs=1e-9)

    def test_least_loaded_minimises_mean_wait(self, result):
        least = result.row("least-loaded")
        pure_fidelity = result.row("fidelity[esp]")
        assert least.mean_wait_s <= pure_fidelity.mean_wait_s + 1e-9

    def test_queue_aware_spreads_load_better_than_pure_fidelity(self, result):
        aware = result.row("fidelity[esp, queue_weight=0.3]")
        pure = result.row("fidelity[esp]")
        assert aware.busiest_device_share <= pure.busiest_device_share + 1e-9
        assert aware.mean_wait_s <= pure.mean_wait_s + 1e-9

    def test_render_mentions_every_policy(self, result):
        table = render_cloud_policy_comparison(result)
        for row in result.rows:
            assert row.policy in table


class TestCalibrationDrift:
    @pytest.fixture(scope="class")
    def result(self):
        return run_calibration_drift(
            config=QUICK,
            fleet=drift_testbed_fleet(4, seed=QUICK.seed),
            num_cycles=5,
            drift_model=CalibrationDriftModel(two_qubit_spread=0.6),
        )

    def test_one_row_per_cycle(self, result):
        assert len(result.rows) == 5
        assert [row.cycle for row in result.rows] == [1, 2, 3, 4, 5]

    def test_fresh_choice_is_never_worse_than_stale(self, result):
        for row in result.rows:
            assert row.fresh_estimate >= row.stale_estimate - 1e-12
            assert row.gap >= -1e-12

    def test_summary_statistics_are_consistent(self, result):
        assert 0.0 <= result.switch_fraction() <= 1.0
        assert result.max_gap() >= result.mean_gap() >= 0.0

    def test_render_contains_summary_line(self, result):
        report = render_calibration_drift(result)
        assert "switch fraction" in report
        assert result.circuit_name in report


class TestScalableMatchingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scalable_matching(
            config=QUICK,
            exhaustive_embedding_cap=500,
            budget=MatchBudget(exact_embedding_cap=0, anneal_iterations=100, restarts=1),
        )

    def test_rows_cover_patterns_and_devices(self, result):
        assert len(result.rows) == 4
        assert {row.pattern for row in result.rows} == {"dense-9", "ring-10"}

    def test_budgeted_matcher_is_faster_on_the_dense_case(self, result):
        dense = result.dense_row()
        assert dense.speedup > 1.0

    def test_quality_loss_is_bounded(self, result):
        # On the fully connected device every placement is exact, so the
        # budgeted score stays on the same scale as the exhaustive one.
        assert result.worst_score_ratio() < 2.0
        for row in result.rows:
            assert row.scalable_score > 0.0
            assert row.exact_score > 0.0

    def test_render_lists_speedups(self, result):
        report = render_scalable_matching(result)
        assert "speedup" in report
        assert "dense-9" in report
