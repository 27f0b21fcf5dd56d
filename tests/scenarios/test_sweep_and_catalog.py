"""The named-scenario catalogue and the policy × engine sweep harness."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    PoissonProcess,
    ScenarioSpec,
    Trace,
    available_scenarios,
    build_scenario_trace,
    generate_requests,
    register_scenario,
    render_sweep,
    run_sweep,
    scenario,
    unregister_scenario,
)
from repro.utils.exceptions import ScenarioError
from repro.workloads import clifford_suite


class TestCatalog:
    def test_builtin_catalogue_covers_the_scenario_axes(self):
        names = available_scenarios()
        for expected in ("steady", "diurnal", "bursty", "heavy-tail", "flash-crowd", "closed-loop"):
            assert expected in names

    def test_build_trace_is_deterministic_and_name_salted(self):
        first = build_scenario_trace("steady", seed=3, num_jobs=10)
        second = build_scenario_trace("steady", seed=3, num_jobs=10)
        other = build_scenario_trace("bursty", seed=3, num_jobs=10)
        assert [j.arrival_time for j in first] == [j.arrival_time for j in second]
        assert [j.arrival_time for j in first] != [j.arrival_time for j in other]
        assert first.metadata["process"] == "poisson"

    def test_unknown_scenario_lists_the_catalogue(self):
        with pytest.raises(ScenarioError, match="steady"):
            scenario("does-not-exist")

    def test_register_and_unregister(self):
        spec = ScenarioSpec(
            name="test-custom",
            description="for this test only",
            process_factory=lambda: PoissonProcess(rate_per_hour=600.0),
            num_jobs=4,
            suite_factory=clifford_suite,
        )
        register_scenario(spec)
        try:
            assert "test-custom" in available_scenarios()
            with pytest.raises(ScenarioError, match="already registered"):
                register_scenario(spec)
            trace = build_scenario_trace("test-custom", seed=1)
            assert len(trace) == 4
        finally:
            unregister_scenario("test-custom")
        assert "test-custom" not in available_scenarios()

    def test_describe_is_json_serialisable(self):
        for name in available_scenarios():
            json.dumps(scenario(name).describe())


@pytest.fixture(scope="module")
def tiny_trace():
    requests = generate_requests(
        PoissonProcess(rate_per_hour=240.0), num_jobs=4, suite=clifford_suite(), seed=11, shots=32
    )
    return Trace.from_requests("tiny", requests)


class TestSweep:
    def test_grid_shape_and_cell_lookup(self, testbed_devices, tiny_trace):
        result = run_sweep(
            testbed_devices,
            [tiny_trace],
            engines=("cloud", "orchestrator"),
            policies=(None, "least-loaded"),
            seed=5,
            fidelity_report="none",
            canary_shots=64,
        )
        assert len(result.reports) == 4
        native = result.report("tiny", "cloud")
        registry = result.report("tiny", "cloud", "least-loaded")
        assert native.policy is None and registry.policy == "least-loaded"
        with pytest.raises(ScenarioError, match="no cell"):
            result.report("tiny", "cloud", "random")

    def test_one_trace_shared_by_every_cell(self, testbed_devices, tiny_trace):
        """Both engines must see identical workloads (same job names)."""
        result = run_sweep(
            testbed_devices,
            [tiny_trace],
            engines=("cloud", "orchestrator"),
            policies=("round-robin",),
            seed=5,
            fidelity_report="none",
            canary_shots=64,
        )
        names = [[outcome.name for outcome in report.outcomes] for report in result.reports]
        assert names[0] == names[1]
        # Registered policies are engine-neutral: same routing both cells.
        assert result.reports[0].routing() == result.reports[1].routing()

    def test_catalogue_names_are_accepted(self, testbed_devices):
        result = run_sweep(
            testbed_devices,
            ["steady"],
            engines=("cloud",),
            seed=5,
            num_jobs=3,
            fidelity_report="none",
        )
        assert result.reports[0].scenario == "steady"
        assert result.reports[0].jobs == 3

    def test_render_and_json(self, testbed_devices, tiny_trace):
        result = run_sweep(
            testbed_devices,
            [tiny_trace],
            engines=("cloud",),
            policies=(None,),
            seed=5,
            fidelity_report="none",
        )
        table = render_sweep(result)
        assert "p99_wait_s" in table and "tiny" in table
        rows = json.loads(result.to_json())
        assert rows[0]["scenario"] == "tiny"
        assert rows[0]["mean_fidelity"] is None  # fidelity_report=none -> null, not NaN

    def test_empty_axes_are_rejected(self, testbed_devices, tiny_trace):
        with pytest.raises(ScenarioError):
            run_sweep(testbed_devices, [])
        with pytest.raises(ScenarioError):
            run_sweep(testbed_devices, [tiny_trace], engines=())
        with pytest.raises(ScenarioError):
            run_sweep(testbed_devices, [tiny_trace], policies=())

    def test_the_retired_cluster_engine_is_rejected(self, testbed_devices, tiny_trace):
        with pytest.raises(ScenarioError, match="Unknown engine 'cluster'"):
            run_sweep(testbed_devices, [tiny_trace], engines=("cluster",), fidelity_report="none")
