"""A ranking builds no circuit for a swap-free device, and every report is still the full per-device one.

``estimate_many`` places every device (``place``, memoised in the
process-wide ``placement_cache``) and compiles a full ``transpile`` only for
a device whose layout needs SWAPs or whose canary the density batch does not
take.  The oracle here is the per-device path with no batching and no
memo: the plain canary through ``transpile`` and ``execute_with_noise`` on
each device, seeded as the estimator seeds it.
"""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import Backend, generate_fleet
from repro.circuits import QuantumCircuit
from repro.circuits.algorithms import hardware_efficient_ansatz, qaoa_maxcut
from repro.circuits.library import ghz
from repro.circuits.random_circuits import grid_random_circuit
from repro.fidelity import CanaryReport, CliffordCanaryEstimator
from repro.fidelity import canary as canary_module
from repro.simulators.density import DENSITY_LIMIT
from repro.simulators.noisy import execute_with_noise
from repro.simulators.result import hellinger_fidelity
from repro.transpiler import place, transpile, virtual_stage
from repro.utils.cache import all_cache_stats, clear_all_caches, placement_cache
from repro.utils.rng import derive_seed
from repro.workloads import nisq_mix_suite

SHOTS = 64
SEED = 4


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


@pytest.fixture(scope="module")
def fleet16():
    return generate_fleet(seed=2024, limit=16)


@pytest.fixture(scope="module")
def fleet96():
    return generate_fleet(seed=2024, limit=96)


def _oracle(circuit, fleet):
    """Each device's report from a full transpile of the canary and its own noisy execution."""
    estimator = CliffordCanaryEstimator(shots=SHOTS, seed=SEED)
    canary = estimator.build_canary(circuit)
    ideal = estimator.ideal_distribution(canary)
    reports = []
    for backend in fleet:
        compiled = transpile(canary, backend, seed=derive_seed(SEED, "canary-transpile", backend.name, circuit.name))
        noisy = execute_with_noise(
            compiled.circuit,
            backend.properties,
            shots=SHOTS,
            seed=derive_seed(SEED, "canary-execute", backend.name, circuit.name),
        )
        reports.append(
            CanaryReport(
                device=backend.name,
                circuit_name=circuit.name,
                canary_fidelity=hellinger_fidelity(noisy.counts, ideal),
                swaps_inserted=compiled.swaps_inserted,
                two_qubit_gates=compiled.two_qubit_gate_count(),
                shots=SHOTS,
                details={
                    "canary_gates": canary.size(),
                    "non_clifford_replaced": canary.metadata.get("non_clifford_replaced", 0),
                },
            )
        )
    return reports


def _assert_oracle(circuit, fleet):
    fleet = [backend for backend in fleet if backend.num_qubits >= circuit.num_qubits]
    reports = CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(circuit, fleet)
    clear_all_caches()
    expected = _oracle(circuit, fleet)
    assert [dataclasses.asdict(r) for r in reports] == [dataclasses.asdict(r) for r in expected]
    return reports


def _hea(angle=0.3):
    return hardware_efficient_ansatz(4, layers=2, parameters=[angle] * 12, measure=True).copy(name="hea_4")


def _grid():
    base = grid_random_circuit(2, 2, depth=4, seed=11)
    rng = np.random.default_rng(5)
    circuit = QuantumCircuit(base.num_qubits, base.num_clbits, name="grid_2x2")
    for instruction in base.data:
        if instruction.params:
            angles = tuple(float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=len(instruction.params)))
            instruction = replace(instruction, params=angles)
        circuit.append(instruction)
    return circuit


def _qaoa_ring():
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    return qaoa_maxcut(ring, layers=1, gammas=[0.7], betas=[0.4]).copy(name="qaoa_ring5")


def _star(leaves=4):
    """A star of CX gates: a perfect layout needs a qubit of degree ``leaves``, which some devices lack."""
    circuit = QuantumCircuit(leaves + 1, name=f"star_{leaves}")
    for leaf in range(1, leaves + 1):
        circuit.h(0).cx(0, leaf)
    return circuit.measure_all()


def _shared_clbit():
    """A chain whose first two qubits are both measured into classical bit 0."""
    circuit = QuantumCircuit(3, 2, name="shared_clbit")
    circuit.h(0).cx(0, 1).cx(1, 2)
    circuit.measure(0, 0).measure(1, 0).measure(2, 1)
    return circuit


SWEEP = {"hea_4": _hea, "grid_2x2": _grid, "qaoa_ring5": _qaoa_ring}
EDGE_CASES = {
    "routed": _star,
    "wider_than_density_limit": lambda: ghz(DENSITY_LIMIT + 6),
    "shared_clbit": _shared_clbit,
}


class TestReportsEqualTheFullPerDevicePath:
    @pytest.mark.parametrize("make", list(SWEEP.values()), ids=list(SWEEP))
    def test_sweep_canaries_16(self, fleet16, make):
        _assert_oracle(make(), fleet16)

    @pytest.mark.parametrize("key", [entry.key for entry in nisq_mix_suite().entries])
    def test_nisq_mix_16(self, fleet16, key):
        entry = next(entry for entry in nisq_mix_suite().entries if entry.key == key)
        _assert_oracle(entry.factory(), fleet16)

    @pytest.mark.parametrize("make", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
    def test_edge_cases_16(self, fleet16, make):
        reports = _assert_oracle(make(), fleet16)
        # Each case mixes swap-free devices with the path it covers.
        assert any(report.swaps_inserted == 0 for report in reports)

    def test_the_routed_case_routes_some_devices(self, fleet16):
        reports = _assert_oracle(_star(), fleet16)
        assert any(report.swaps_inserted > 0 for report in reports)

    @pytest.mark.parametrize(
        "make", list(SWEEP.values()) + list(EDGE_CASES.values()), ids=list(SWEEP) + list(EDGE_CASES)
    )
    def test_fleet_96(self, fleet96, make):
        _assert_oracle(make(), fleet96)

    def test_swap_free_devices_build_no_circuit(self, fleet16, monkeypatch):
        compiled = []
        original = canary_module.transpile
        monkeypatch.setattr(canary_module, "transpile", lambda *a, **k: compiled.append(a[1].name) or original(*a, **k))
        reports = CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(_star(), fleet16)
        assert sorted(compiled) == sorted(r.device for r in reports if r.swaps_inserted > 0)
        assert compiled

    @pytest.mark.parametrize("make", [EDGE_CASES["wider_than_density_limit"], _shared_clbit], ids=["wide", "shared"])
    def test_a_canary_the_batch_does_not_take_compiles_every_device(self, fleet16, monkeypatch, make):
        compiled = []
        original = canary_module.transpile
        monkeypatch.setattr(canary_module, "transpile", lambda *a, **k: compiled.append(a[1].name) or original(*a, **k))
        circuit = make()
        fleet = [backend for backend in fleet16 if backend.num_qubits >= circuit.num_qubits]
        CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(circuit, fleet)
        assert compiled == [backend.name for backend in fleet]


def _layouts_used(monkeypatch):
    """Record the layout mapping of every device that reaches ``swap_free_placeable``."""
    used = []
    original = canary_module.swap_free_placeable

    def recording(virtual, layout, target, *args, **kwargs):
        used.append(dict(layout.mapping))
        return original(virtual, layout, target, *args, **kwargs)

    monkeypatch.setattr(canary_module, "swap_free_placeable", recording)
    return used


class TestPlacementCache:
    def test_a_new_estimator_reuses_the_placements(self, fleet16):
        CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(_hea(), fleet16)
        assert len(placement_cache()) == len(fleet16)
        before = all_cache_stats()["placement"]
        # A fresh-angle job ranks with a fresh estimator, as the meta server does.
        CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(_hea(angle=1.1), fleet16)
        after = all_cache_stats()["placement"]
        assert after["hits"] - before["hits"] == len(fleet16)
        assert after["misses"] == before["misses"]

    def test_all_cache_stats_has_a_placement_row(self):
        assert set(all_cache_stats()["placement"]) == {"hits", "misses", "evictions", "hit_rate"}

    def test_clear_all_caches_empties_it(self, fleet16):
        CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(_hea(), fleet16[:4])
        assert len(placement_cache()) == 4
        clear_all_caches()
        assert len(placement_cache()) == 0

    def test_drift_that_moves_the_best_embedding_moves_the_ranking(self, fleet16, monkeypatch):
        source = fleet16[0].properties
        device = Backend(dataclasses.replace(source, two_qubit_error=dict(source.two_qubit_error)))
        circuit = _hea()
        used = _layouts_used(monkeypatch)
        CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(circuit, [device])
        before = used[-1]
        # In-place drift: every coupled pair inside the chosen embedding becomes the worst on the device.
        chosen = set(before.values())
        errors = device.properties.two_qubit_error
        for edge in errors:
            if set(edge) <= chosen:
                errors[edge] = 0.5
        moved = place(virtual_stage(circuit.measured(), device), device).mapping
        assert moved != before
        reports = CliffordCanaryEstimator(shots=SHOTS, seed=SEED).estimate_many(circuit, [device])
        assert used[-1] == moved
        clear_all_caches()
        assert [dataclasses.asdict(r) for r in reports] == [dataclasses.asdict(r) for r in _oracle(circuit, [device])]
