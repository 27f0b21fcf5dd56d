"""Tests for the ExecutionPlan artifact and the PlanCompiler."""

import dataclasses
import pickle

import pytest

from repro.backends import three_device_testbed
from repro.circuits import QuantumCircuit, ghz
from repro.plans import ExecutionPlan, PlanCompiler
from repro.simulators import DENSITY_LIMIT, execute_with_noise, precompile_execution
from repro.simulators.density import read_rates
from repro.transpiler import transpile
from repro.utils.cache import calibration_fingerprint, clear_all_caches
from repro.utils.exceptions import SimulationError


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


@pytest.fixture()
def backend():
    return three_device_testbed()[0]


@pytest.fixture()
def plan(backend):
    return PlanCompiler().compile(ghz(4), backend)


class TestExecutionPlanArtifact:
    def test_plan_is_frozen(self, plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.device = "other"

    def test_plan_pickles_round_trip(self, plan):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.device == plan.device
        assert clone.calibration_fingerprint == plan.calibration_fingerprint
        assert len(clone.transpiled.circuit) == len(plan.transpiled.circuit)
        assert clone.execution.engine == plan.execution.engine

    def test_unpickled_plan_replays_identically(self, plan, backend):
        clone = pickle.loads(pickle.dumps(plan))
        original = execute_with_noise(
            plan.transpiled.circuit, backend.noise_model(), shots=64, seed=3,
            precompiled=plan.execution,
        )
        replayed = execute_with_noise(
            clone.transpiled.circuit, backend.noise_model(), shots=64, seed=3,
            precompiled=clone.execution,
        )
        assert replayed.counts == original.counts

    def test_plan_carries_the_law_of_its_device(self, plan, backend):
        assert plan.execution.engine == "density"
        law = plan.execution.law
        assert law.rates == read_rates(plan.execution.noise_sites, backend.noise_model())
        clone = pickle.loads(pickle.dumps(plan)).execution.law
        assert clone.rates == law.rates
        assert clone.labels == law.labels


class TestPlanCompiler:
    def test_compile_produces_coherent_identity(self, backend):
        compiler = PlanCompiler()
        circuit = ghz(4)
        plan = compiler.compile(circuit, backend)
        assert plan.device == backend.name
        assert plan.calibration_fingerprint == calibration_fingerprint(backend.properties)
        assert compiler.plans_compiled == 1

    def test_measurements_are_appended_when_missing(self, backend):
        plan = PlanCompiler().compile(ghz(4, measure=False), backend)
        assert plan.transpiled.circuit.has_measurements()

    def test_transpile_runs_under_the_given_seed(self, backend):
        circuit = ghz(4)
        plan = PlanCompiler().compile(circuit, backend, transpile_seed=9)
        assert plan.transpiled.circuit == transpile(circuit, backend, seed=9).circuit


class TestPrecompiledExecution:
    def test_replay_is_bit_identical_to_fresh_execution(self, backend):
        compiled = transpile(ghz(4), backend, seed=1)
        execution = precompile_execution(compiled.circuit)
        fresh = execute_with_noise(compiled.circuit, backend.noise_model(), shots=128, seed=7)
        warm = execute_with_noise(
            compiled.circuit, backend.noise_model(), shots=128, seed=7, precompiled=execution
        )
        assert warm.counts == fresh.counts

    def test_width_mismatch_is_rejected(self, backend):
        compiled = transpile(ghz(4), backend, seed=1)
        execution = precompile_execution(compiled.circuit)
        other = QuantumCircuit(compiled.circuit.num_qubits + 1)
        other.h(0)
        other.measure_all()
        with pytest.raises(SimulationError):
            execute_with_noise(other, backend.noise_model(), shots=16, precompiled=execution)

    def test_wide_clifford_circuits_take_the_stabilizer_path(self):
        wide = ghz(14)  # beyond the batched-statevector width limit
        execution = precompile_execution(wide, compact=False)
        assert execution.engine == "stabilizer"
        assert execution.program is not None

    def test_narrow_circuits_take_the_density_path(self, backend):
        compiled = transpile(ghz(3), backend, seed=1)
        execution = precompile_execution(compiled.circuit)
        assert execution.engine == "density"
        assert execution.program is None
        assert execution.law is None
        with_law = precompile_execution(compiled.circuit, noise_model=backend.noise_model())
        assert with_law.law is not None
        assert with_law.law_for(backend.noise_model()) is with_law.law

    def test_mid_width_circuits_take_the_statevector_path(self):
        execution = precompile_execution(ghz(DENSITY_LIMIT + 1), compact=False)
        assert execution.engine == "statevector"
        assert execution.program is None
