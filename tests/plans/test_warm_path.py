"""Warm-submit semantics: plans skip transpile/match/lower across the engines.

The acceptance property of the plan subsystem: after one cold submit, a
repeat submission of the same workload performs **zero** transpile calls,
**zero** scheduler cycles and **zero** embedding/canary lookups — asserted
through counting monkeypatches on the compile entry points plus the shared
plan statistics — while calibration drift forces a recompile and fused
plans stay bit-identical to the unfused path.
"""

import dataclasses
import math
import sys

import pytest

import repro.core.cache as cache_module
import repro.plans.compiler as compiler_module
import repro.qasm.parser as parser_module
import repro.service.engines as engines_module
import repro.simulators.noisy as noisy_module
from repro.backends import three_device_testbed
from repro.circuits import QuantumCircuit, ghz
from repro.core.cache import all_cache_stats, clear_all_caches
from repro.fidelity.canary import CliffordCanaryEstimator
from repro.simulators import NoiseModel
from repro.simulators.density import read_rates
from repro.service import (
    CloudEngine,
    ClusterEngine,
    JobRequirements,
    JobState,
    OrchestratorEngine,
    QRIOService,
)
from repro.transpiler.fusion import fuse_clifford_runs
from repro.utils.exceptions import JobFailedError, SimulationError


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


class _CountingTranspile:
    """Wrap a module's ``transpile`` and count how often it runs."""

    def __init__(self, module):
        self.calls = 0
        self._inner = module.transpile
        self._module = module

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)


@pytest.fixture()
def count_engine_transpile(monkeypatch):
    # A cold run transpiles inside the master server's plan compile.
    counter = _CountingTranspile(compiler_module)
    monkeypatch.setattr(compiler_module, "transpile", counter)
    return counter


def _spy_everywhere(monkeypatch, module, attr):
    """Count calls of ``module.attr`` through every ``repro`` module that binds it."""
    calls = []
    original = getattr(module, attr)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for bound in list(sys.modules.values()):
        if getattr(bound, "__name__", "").startswith("repro") and getattr(bound, attr, None) is original:
            monkeypatch.setattr(bound, attr, spy)
    return calls


def _plan_stats():
    return all_cache_stats()["plan"]


@pytest.fixture()
def ideal_runs(monkeypatch):
    """Names of the canaries whose ideal distribution was simulated."""
    runs = []
    inner = CliffordCanaryEstimator.ideal_distribution

    def spy(self, canary):
        runs.append(canary.name)
        return inner(self, canary)

    monkeypatch.setattr(CliffordCanaryEstimator, "ideal_distribution", spy)
    return runs


class TestClusterWarmPath:
    def test_warm_submit_skips_transpile_and_the_scheduler(
        self, monkeypatch, count_engine_transpile
    ):
        service = QRIOService(three_device_testbed(), ClusterEngine(seed=5, canary_shots=64))
        schedule_calls = []
        inner_schedule = engines_module.QRIOScheduler.schedule
        monkeypatch.setattr(
            engines_module.QRIOScheduler,
            "schedule",
            lambda self, job, *args, **kwargs: schedule_calls.append(job.name)
            or inner_schedule(self, job, *args, **kwargs),
        )
        cold = service.submit(ghz(4), 0.9, shots=128).result()
        assert count_engine_transpile.calls == 1
        assert len(schedule_calls) == 1
        assert cold.detail["plan_replay"] is False
        before = _plan_stats()
        warm = [service.submit(ghz(4), 0.9, shots=128).result() for _ in range(3)]
        after = _plan_stats()
        # Zero transpile, zero scheduler cycles, three pure plan hits.
        assert count_engine_transpile.calls == 1
        assert len(schedule_calls) == 1
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] - before["misses"] == 0
        for result in warm:
            assert result.detail["plan_replay"] is True
            assert result.device == cold.device
            assert sum(result.counts.values()) == 128

    def test_warm_submit_touches_no_embedding_or_canary_caches(self, count_engine_transpile, ideal_runs):
        requirements = JobRequirements(topology_edges=((0, 1), (1, 2)))
        service = QRIOService(three_device_testbed(), ClusterEngine(seed=5, canary_shots=64))
        service.submit(ghz(3), requirements, shots=64).result()
        before = all_cache_stats()["embedding"]
        canaries = len(ideal_runs)
        service.submit(ghz(3), requirements, shots=64).result()
        after = all_cache_stats()["embedding"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert len(ideal_runs) == canaries

    def test_calibration_drift_forces_a_recompile(self, count_engine_transpile):
        fleet = three_device_testbed()
        engine = ClusterEngine(seed=5, canary_shots=64)
        service = QRIOService(fleet, engine)
        cold = service.submit(ghz(4), 0.9, shots=64).result()
        assert count_engine_transpile.calls == 1
        cached_before = len(engine._plans)
        # Drift the placed device's calibration in place: every error rate
        # moves, so its fingerprint no longer equals the plan's.
        placed = next(b for b in fleet if b.name == cold.device)
        for edge in placed.properties.two_qubit_error:
            placed.properties.two_qubit_error[edge] *= 1.5
        before = _plan_stats()
        recompiled = service.submit(ghz(4), 0.9, shots=64).result()
        after = _plan_stats()
        # The stale plan missed, was eagerly invalidated, and the cold path
        # transpiled again; the fresh-fingerprint plan replaced it 1:1.
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 0
        assert count_engine_transpile.calls == 2
        assert recompiled.detail["plan_replay"] is False
        assert len(engine._plans) == cached_before
        # And the fresh plan is immediately warm again.
        warm = service.submit(ghz(4), 0.9, shots=64).result()
        assert warm.detail["plan_replay"] is True
        assert count_engine_transpile.calls == 2

    def test_a_calibration_push_recompiles_the_plan_with_a_fresh_law(self):
        fleet = three_device_testbed()
        engine = ClusterEngine(seed=5, canary_shots=64)
        service = QRIOService(fleet, engine)
        cold = service.submit(ghz(4), 0.9, shots=64).result()
        (stale,) = engine._plans._data.values()
        placed = next(b for b in fleet if b.name == cold.device)
        assert stale.execution.law.rates == read_rates(stale.execution.noise_sites, placed.noise_model())
        for edge in placed.properties.two_qubit_error:
            placed.properties.two_qubit_error[edge] *= 1.5
        # Replaying the stale plan's execution on the pushed calibration
        # draws from a law computed under the live rates, not the stored one.
        pushed = placed.noise_model()
        replay = placed.run(stale.transpiled.circuit, shots=4096, seed=9, precompiled=stale.execution)
        assert replay.counts == stale.execution.law_for(pushed).draw(4096, seed=9).counts
        assert replay.counts != stale.execution.law.draw(4096, seed=9).counts
        service.submit(ghz(4), 0.9, shots=64).result()
        (fresh,) = engine._plans._data.values()
        assert fresh is not stale
        assert fresh.execution.law.rates == read_rates(fresh.execution.noise_sites, placed.noise_model())
        assert fresh.execution.law.rates != stale.execution.law.rates

    def test_different_shots_compile_separate_plans(self, count_engine_transpile):
        service = QRIOService(three_device_testbed(), ClusterEngine(seed=5, canary_shots=64))
        service.submit(ghz(3), 0.9, shots=64).result()
        result = service.submit(ghz(3), 0.9, shots=128).result()
        # Shot budget is engine context: no replay across budgets.
        assert result.detail["plan_replay"] is False
        assert count_engine_transpile.calls == 2

    def test_policy_routed_jobs_never_use_plans(self):
        engine = ClusterEngine(seed=5, canary_shots=64, policy="round-robin")
        service = QRIOService(three_device_testbed(), engine)
        stats_before = _plan_stats()
        for _ in range(3):
            service.submit(ghz(3), 0.9, shots=64).result()
        # The load-dependent policy path neither stores nor looks up plans.
        assert len(engine._plans) == 0
        assert _plan_stats() == stats_before

    def test_plan_store_is_bounded(self):
        engine = ClusterEngine(seed=5, canary_shots=64)
        service = QRIOService(three_device_testbed()[:1], engine)
        store = engine._plans
        evictions = store.stats.evictions
        for index in range(700):
            circuit = QuantumCircuit(2)
            circuit.rx(0.001 * (index + 1), 0).cx(0, 1)
            circuit.measure_all()
            service.submit(circuit, shots=8).result()
        # 700 distinct workloads: the store evicts the oldest 188.
        assert store.stats.evictions - evictions == 700 - store.maxsize
        assert len(store) == store.maxsize


class TestOrchestratorWarmPath:
    def test_warm_submit_skips_master_server_transpile(self, count_engine_transpile, ideal_runs):
        service = QRIOService(
            three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64)
        )
        cold = service.submit(ghz(4), 0.9, shots=128).result()
        assert count_engine_transpile.calls == 1
        assert cold.detail["plan_replay"] is False
        assert len(ideal_runs) == 1
        before = _plan_stats()
        warm = service.submit(ghz(4), 0.9, shots=128).result()
        after = _plan_stats()
        assert count_engine_transpile.calls == 1
        assert warm.detail["plan_replay"] is True
        assert warm.device == cold.device
        assert after["hits"] - before["hits"] == 1
        # The canary ranking never ran: no ideal distribution was simulated.
        assert len(ideal_runs) == 1

    def test_submits_parse_no_qasm_and_compile_the_job_once(self, monkeypatch):
        parses = _spy_everywhere(monkeypatch, parser_module, "parse_qasm")
        precompiles = _spy_everywhere(monkeypatch, noisy_module, "precompile_execution")
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        cold = service.submit(ghz(4), 0.9, shots=128)
        cold.result()
        assert len(cold.status().detail["scores"]) == 3
        # The job's own plan only: the canaries of the three swap-free devices
        # share one batched outcome-law pass, which precompiles nothing.
        assert (len(parses), len(precompiles)) == (0, 1)
        warm = service.submit(ghz(4), 0.9, shots=128).result()
        assert warm.detail["plan_replay"] is True
        assert (len(parses), len(precompiles)) == (0, 1)

    def test_a_warm_submit_rederives_nothing(self, monkeypatch):
        """No calibration digest, no noise model and one structural hash per warm submit."""
        service = QRIOService(three_device_testbed(), OrchestratorEngine(seed=5, canary_shots=64))
        for _ in range(2):
            service.submit(ghz(4), 0.9, shots=128).result()
        digests = _spy_everywhere(monkeypatch, cache_module, "_calibration_digest")
        hashes = _spy_everywhere(monkeypatch, cache_module, "_structure_digest")
        noise_models = []
        post_init = NoiseModel.__post_init__
        monkeypatch.setattr(NoiseModel, "__post_init__", lambda model: noise_models.append(model) or post_init(model))
        warm = service.submit(ghz(4), 0.9, shots=128).result()
        assert warm.detail["plan_replay"] is True
        assert (len(digests), len(noise_models), len(hashes)) == (0, 0, 1)

    def test_warm_replay_is_recorded_in_the_cluster_events(self):
        engine = OrchestratorEngine(seed=5, canary_shots=64)
        service = QRIOService(three_device_testbed(), engine)
        service.submit(ghz(3), 0.9, shots=64).result()
        service.submit(ghz(3), 0.9, shots=64).result()
        assert engine.cluster.events.of_kind("PlanScheduled")


class TestNonPhysicalRates:
    """Rates read live from a calibration are checked where a law is computed from them."""

    RATES = [1.5, math.nan, math.inf]
    TABLES = ["one_qubit_error", "readout_error"]

    @staticmethod
    def _break(backend, table, rate):
        entries = getattr(backend.properties, table)
        for site in entries:
            entries[site] = rate

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("table", TABLES)
    def test_an_out_of_range_rate_fails_a_cold_job(self, table, rate):
        fleet = three_device_testbed()
        service = QRIOService(fleet, OrchestratorEngine(seed=5, canary_shots=64))
        for backend in fleet:
            self._break(backend, table, rate)
        handle = service.submit(ghz(4), 0.9, shots=64)
        with pytest.raises(JobFailedError, match=f"noise rate {rate!r}"):
            handle.result()
        assert handle.state is JobState.FAILED

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("table", TABLES)
    def test_an_out_of_range_rate_fails_a_job_that_had_a_warm_plan(self, table, rate):
        fleet = three_device_testbed()
        engine = OrchestratorEngine(seed=5, canary_shots=64)
        service = QRIOService(fleet, engine)
        cold = service.submit(ghz(4), 0.9, shots=64).result()
        (plan,) = engine._plans._data.values()
        placed = next(backend for backend in fleet if backend.name == cold.device)
        self._break(placed, table, rate)
        # The stored plan's law no longer matches the live rates: the fresh
        # law is refused, not drawn from.
        with pytest.raises(SimulationError, match=f"noise rate {rate!r}"):
            placed.run(plan.transpiled.circuit, shots=64, seed=1, precompiled=plan.execution)
        handle = service.submit(ghz(4), 0.9, shots=64)
        with pytest.raises(JobFailedError, match=f"noise rate {rate!r}"):
            handle.result()
        assert handle.state is JobState.FAILED


class TestCloudFeasibility:
    def test_feasibility_is_fresh_on_every_arrival(self):
        fleet = three_device_testbed()
        engine = CloudEngine()
        service = QRIOService(fleet, engine)
        requirements = JobRequirements(max_avg_two_qubit_error=0.1)
        drifted_name, outage_name, survivor_name = (backend.name for backend in fleet)

        def arrive():
            return service.submit(ghz(4), requirements, shots=64).result()

        assert arrive().num_feasible == 3
        # A calibration push beyond the error bound drops the device at once.
        properties = fleet[0].properties
        drifted = dataclasses.replace(
            properties,
            two_qubit_error={edge: 4 * error for edge, error in properties.two_qubit_error.items()},
        )
        engine.apply_calibration(drifted_name, drifted)
        after_drift = arrive()
        assert after_drift.num_feasible == 2
        assert after_drift.device != drifted_name
        # An outage drops a second device; only the survivor is left.
        engine.set_device_available(outage_name, False)
        during_outage = arrive()
        assert during_outage.num_feasible == 1
        assert during_outage.device == survivor_name
        # Recovery brings the device back on the next arrival.
        engine.set_device_available(outage_name, True)
        assert arrive().num_feasible == 2

    def test_arrivals_never_touch_the_plan_cache(self):
        service = QRIOService(three_device_testbed(), CloudEngine())
        before = _plan_stats()
        for _ in range(3):
            service.submit(ghz(4), shots=64).result()
        assert _plan_stats() == before


class TestFusionEquivalenceAcrossEngines:
    """Fused and unfused submissions of the same workload are bit-identical:
    tableau/statevector evolution is global-phase invariant and the seeds
    derive from the job name, not the gate list."""

    def _workload(self):
        circuit = ghz(4, measure=False)
        circuit.s(0)
        circuit.sdg(0)  # redundant run: fusion has something to collapse
        circuit.measure_all()
        return circuit

    @pytest.mark.parametrize(
        "engine_factory",
        [
            lambda: ClusterEngine(seed=5, canary_shots=64),
            lambda: OrchestratorEngine(seed=5, canary_shots=64),
        ],
        ids=["cluster", "orchestrator"],
    )
    def test_counts_are_bit_identical(self, engine_factory):
        results = []
        for circuit in (self._workload(), fuse_clifford_runs(self._workload())):
            clear_all_caches()
            service = QRIOService(three_device_testbed(), engine_factory())
            results.append(service.submit(circuit, 0.9, shots=256, name="same-job").result())
        unfused, fused = results
        assert fused.counts == unfused.counts
        assert fused.device == unfused.device
        assert fused.score == unfused.score

    def test_cloud_fidelity_and_routing_are_identical(self):
        results = []
        for circuit in (self._workload(), fuse_clifford_runs(self._workload())):
            clear_all_caches()
            service = QRIOService(three_device_testbed(), CloudEngine())
            results.append(service.submit(circuit, shots=256, name="same-job").result())
        unfused, fused = results
        assert fused.device == unfused.device
        assert fused.fidelity == unfused.fidelity


class TestServiceKnobs:
    def test_cache_stats_surfaces_the_plan_cache(self):
        service = QRIOService(three_device_testbed(), ClusterEngine(seed=5, canary_shots=64))
        service.submit(ghz(3), 0.9, shots=64).result()
        service.submit(ghz(3), 0.9, shots=64).result()
        stats = service.cache_stats()
        assert {"embedding", "ideal_distribution", "plan"} <= set(stats)
        assert stats["plan"]["hits"] >= 1

    def test_cache_stats_exposes_the_batch_row(self):
        # No cache backs the row; it stays for perfbench's cache.batch.* metrics.
        stats = QRIOService(three_device_testbed(), ClusterEngine(seed=5, canary_shots=64)).cache_stats()
        assert stats["batch"] == {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
