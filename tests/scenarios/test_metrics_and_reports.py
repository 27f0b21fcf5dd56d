"""Percentile metrics and their surfacing from simulator results and drains."""

from __future__ import annotations

import pytest

from repro.circuits import ghz
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.policies import resolve_policy
from repro.scenarios import (
    PoissonProcess,
    generate_requests,
    makespan,
    summarise_waits,
)
from repro.service import OrchestratorEngine, QRIOService
from repro.workloads import clifford_suite


class TestSummariseWaits:
    def test_percentile_keys(self):
        waits = list(range(101))
        summary = summarise_waits(waits)
        assert summary["p50"] == pytest.approx(50.0)
        assert summary["p95"] == pytest.approx(95.0)
        assert summary["p99"] == pytest.approx(99.0)
        assert summary["median"] == summary["p50"]
        assert summary["max"] == 100.0

    def test_empty_summary_has_every_key(self):
        summary = summarise_waits([])
        assert summary == {"mean": 0.0, "median": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_makespan_with_and_without_origin(self):
        assert makespan([]) == 0.0
        assert makespan([5.0, 9.0]) == 9.0
        assert makespan([5.0, 9.0], start_times=[2.0, 3.0]) == 7.0


class TestCloudSummaryPercentiles:
    def test_simulator_summary_surfaces_p50_p95_p99(self, testbed_devices):
        requests = generate_requests(
            PoissonProcess(rate_per_hour=240.0), num_jobs=8, suite=clifford_suite(), seed=9, shots=64
        )
        result = CloudSimulator(
            testbed_devices, resolve_policy("least-loaded"), config=CloudSimulationConfig(fidelity_report="none")
        ).run(requests)
        summary = result.summary()
        assert {"p50_wait_s", "p95_wait_s", "p99_wait_s", "makespan_s"} <= set(summary)
        assert summary["p50_wait_s"] <= summary["p95_wait_s"] <= summary["p99_wait_s"]


class TestServiceWaitReport:
    def test_synchronous_service_reports_waits_and_makespan(self, testbed_devices):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        for _ in range(3):
            service.submit(ghz(3), 0.9, shots=32)
        service.process()
        report = service.wait_report()
        assert report["jobs"] == 3 and report["finished"] == 3
        assert report["clock"] == "wall"
        assert report["makespan_s"] > 0.0
        waits = report["waits"]
        assert {"p50", "p95", "p99", "mean", "max"} <= set(waits)
        assert all(value >= 0.0 for value in waits.values())

    def test_runtime_drain_report(self, testbed_devices):
        service = QRIOService(
            testbed_devices, OrchestratorEngine(seed=3, canary_shots=64), workers=2
        )
        try:
            for index in range(4):
                service.submit(ghz(3), 0.9, shots=32 + index)
            report = service.runtime.drain_report()
        finally:
            service.close()
        assert report["jobs"] == 4 and report["finished"] == 4
        assert report["waits"]["p99"] >= report["waits"]["p50"]
        assert report["makespan_s"] > 0.0

    def test_unrun_jobs_contribute_no_wait_samples(self, testbed_devices):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        service.submit(ghz(3), 0.9, shots=32)
        report = service.wait_report()
        assert report["jobs"] == 1 and report["finished"] == 0
        assert report["waits"]["max"] == 0.0
