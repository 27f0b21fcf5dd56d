"""Fleet ranking through the canary estimator: one canary build and one batched simulation per ranking.

``estimate_many`` validates every device's width up front, builds the
canary and its ideal counts once, and runs the transpiler's virtual stage
once per basis set.  Each device then gets its own ``transpile``: a device
whose layout needs no SWAP costs a layout and a relabel of the virtual
circuit's post-routing output.  Those devices run one circuit up to the
qubits it lands on, so their noisy executions are one density-matrix pass
with a device axis (chunked to a fixed ``rho`` size), each device drawing
its shots under its own seed; routed devices execute alone.  ``estimate``
is ``estimate_many`` of one device, and a fidelity placement policy makes
one ``estimate_many`` call per decision.  None of that changes a report:
each equals the unbatched per-device path's (full transpile, then the
device's own noisy execution), whichever caller drives the ranking.
"""

import dataclasses
import sys
import threading

import networkx as nx
import pytest

from repro.backends import Backend, generate_fleet
from repro.backends import properties as properties_module
from repro.circuits.algorithms import hardware_efficient_ansatz
from repro.circuits import QuantumCircuit
from repro.circuits.random_circuits import random_clifford_circuit
from repro.core import MetaServer
from repro.core.cache import clear_all_caches
from repro.core.visualizer import MetaServerPayload
from repro.fidelity import CliffordCanaryEstimator
from repro.fidelity import canary as canary_module
from repro.policies import FidelityPlacementPolicy, PlacementContext, ThresholdFidelityPolicy
from repro.simulators import density as density_module
from repro.simulators.noisy import execute_with_noise
from repro.simulators.result import hellinger_fidelity
from repro.qasm import dump_qasm
from repro.transpiler import Layout, transpile
from repro.transpiler.passes import BasisTranslation, SabreRoutingPass
from repro.utils.exceptions import FidelityEstimationError
from repro.utils.rng import derive_seed


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


@pytest.fixture(scope="module")
def wide_fleet():
    return [b for b in generate_fleet(limit=12, seed=7) if b.num_qubits >= 20][:4]


@pytest.fixture(scope="module")
def fleet16():
    return generate_fleet(seed=2024, limit=16)


@pytest.fixture
def canary_builds(monkeypatch):
    """Count ``build_canary`` calls across every estimator instance."""
    calls = []
    original = CliffordCanaryEstimator.build_canary

    def counting(self, circuit):
        calls.append(circuit.name)
        return original(self, circuit)

    monkeypatch.setattr(CliffordCanaryEstimator, "build_canary", counting)
    return calls


def _circuit(seed=3):
    return random_clifford_circuit(14, 8, seed=seed, measure=True, name=f"many-{seed}")


def _hea(name="hea_4", angle=0.3):
    return hardware_efficient_ansatz(4, layers=2, parameters=[angle] * 12, measure=True).copy(name=name)


class TestEstimateMany:
    def test_reports_identical_to_solo_estimate(self, wide_fleet):
        circuit = _circuit()
        batched = CliffordCanaryEstimator(shots=128, seed=9).estimate_many(circuit, wide_fleet)
        solo_estimator = CliffordCanaryEstimator(shots=128, seed=9)
        for backend, report in zip(wide_fleet, batched):
            solo = solo_estimator.estimate(circuit, backend)
            assert dataclasses.asdict(report) == dataclasses.asdict(solo)

    def test_reports_come_back_in_backends_order(self, wide_fleet):
        circuit = _circuit(5)
        reversed_fleet = list(reversed(wide_fleet))
        reports = CliffordCanaryEstimator(shots=64, seed=2).estimate_many(circuit, reversed_fleet)
        assert [r.device for r in reports] == [b.name for b in reversed_fleet]

    def test_empty_fleet_returns_empty(self):
        assert CliffordCanaryEstimator(shots=64, seed=2).estimate_many(_circuit(), []) == []

    def test_infeasible_device_raises_like_estimate(self, wide_fleet):
        wide = random_clifford_circuit(200, 2, seed=1, measure=True, name="too-wide")
        with pytest.raises(FidelityEstimationError):
            CliffordCanaryEstimator(shots=64, seed=2).estimate_many(wide, wide_fleet)


class TestCanaryMemo:
    def test_strategy_ranking_builds_the_canary_once(self, fleet16, canary_builds):
        server = MetaServer(canary_shots=64, seed=4)
        server.register_backends(fleet16)
        server.upload_job_metadata(
            MetaServerPayload(
                job_name="hea_4", strategy="fidelity", fidelity_threshold=1.0, circuit_qasm=dump_qasm(_hea())
            )
        )
        scores = [server.score("hea_4", backend.name) for backend in fleet16]
        assert all(score < float("inf") for score in scores)
        assert canary_builds == ["hea_4_circuit"]

    def test_fidelity_policy_ranking_builds_the_canary_once(self, fleet16, canary_builds):
        policy = FidelityPlacementPolicy(estimator="canary", canary_shots=64, seed=4)
        decision = policy.decide(PlacementContext(fleet=fleet16, circuit=_hea(), job_name="hea_4"))
        assert decision.device is not None
        assert len(decision.scores) == len(fleet16)
        assert canary_builds == ["hea_4"]

    def test_rank_backends_builds_the_canary_once(self, fleet16, canary_builds):
        ranked = CliffordCanaryEstimator(shots=64, seed=4).rank_backends(_hea(), fleet16)
        assert len(ranked) == len(fleet16)
        assert canary_builds == ["hea_4"]

    def test_other_structure_or_name_rebuilds(self, fleet16, canary_builds):
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        device = fleet16[0]
        estimator.estimate(_hea(), device)
        estimator.estimate(_hea(angle=1.1), device)
        estimator.estimate(_hea(name="hea_4_renamed"), device)
        estimator.estimate(_hea(name="hea_4_renamed"), device)
        assert canary_builds == ["hea_4", "hea_4", "hea_4_renamed"]

    def test_mutated_circuit_rebuilds(self, fleet16, canary_builds):
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        circuit = hardware_efficient_ansatz(4, layers=1, parameters=[0.2] * 8)
        estimator.estimate(circuit, fleet16[0])
        circuit.cx(0, 3)
        estimator.estimate(circuit, fleet16[0])
        assert len(canary_builds) == 2

    def test_memoized_reports_equal_a_fresh_estimator(self, fleet16):
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        circuits = [_hea(), _hea(angle=1.1), _hea(name="hea_4_renamed")]
        for circuit in circuits:
            for backend in fleet16:
                report = estimator.estimate(circuit, backend)
                clear_all_caches()
                fresh = CliffordCanaryEstimator(shots=64, seed=4).estimate(circuit, backend)
                assert dataclasses.asdict(report) == dataclasses.asdict(fresh)


@pytest.fixture
def virtual_runs(monkeypatch):
    """Record the (canary, basis set) of every transpiler virtual-stage run."""
    calls = []
    original = canary_module.virtual_stage

    def counting(circuit, target, optimization_level=2):
        calls.append((circuit.name, target.properties.basis_gates))
        return original(circuit, target, optimization_level)

    monkeypatch.setattr(canary_module, "virtual_stage", counting)
    return calls


def _two_basis_fleet(fleet):
    """``fleet`` with its last quarter moved to a u3-only single-qubit basis."""
    cut = 3 * len(fleet) // 4
    return fleet[:cut] + [
        Backend(dataclasses.replace(b.properties, name=f"{b.name}_u3", basis_gates=("u3", "cx")))
        for b in fleet[cut:]
    ]


def _assert_fresh_reports(circuit, fleet, reports):
    for backend, report in zip(fleet, reports):
        clear_all_caches()
        fresh = CliffordCanaryEstimator(shots=64, seed=4).estimate(circuit, backend)
        assert dataclasses.asdict(report) == dataclasses.asdict(fresh)


class TestVirtualStageMemo:
    def test_ranking_runs_the_virtual_stage_once_per_basis_set(self, fleet16, virtual_runs):
        fleet = _two_basis_fleet(fleet16)
        circuit = _hea()
        reports = CliffordCanaryEstimator(shots=64, seed=4).estimate_many(circuit, fleet)
        assert len(virtual_runs) == 2
        assert {basis for _, basis in virtual_runs} == {("u1", "u2", "u3", "cx"), ("u3", "cx")}
        assert len({name for name, _ in virtual_runs}) == 1
        _assert_fresh_reports(circuit, fleet, reports)

    def test_new_circuit_reruns_the_virtual_stage(self, fleet16, virtual_runs):
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        estimator.estimate_many(_hea(), fleet16[:4])
        estimator.estimate_many(_hea(angle=1.1), fleet16[:4])
        assert len(virtual_runs) == 2

    def test_racing_rankings_never_mix_canaries(self, fleet16):
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        fleet = _two_basis_fleet(fleet16[:6])
        # Distinct structures: canaries that coincide would share one
        # ideal-distribution cache entry sampled under whichever name came first.
        circuits = [
            hardware_efficient_ansatz(4, layers=layers, parameters=[0.3] * (4 * layers + 4), measure=True)
            .copy(name=f"hea_4x{layers}")
            for layers in (1, 2, 3, 4)
        ]
        reports = {}
        start = threading.Barrier(len(circuits))

        def rank(circuit):
            start.wait()
            reports[circuit.name] = [estimator.estimate(circuit, backend) for backend in fleet]

        threads = [threading.Thread(target=rank, args=(circuit,)) for circuit in circuits]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for circuit in circuits:
            _assert_fresh_reports(circuit, fleet, reports[circuit.name])


def _count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or a method)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _star(leaves=4):
    """A star of CX gates: a perfect layout needs a qubit of degree ``leaves``, which some devices lack."""
    circuit = QuantumCircuit(leaves + 1, name=f"star_{leaves}")
    for leaf in range(1, leaves + 1):
        circuit.h(0).cx(0, leaf)
    return circuit.measure_all()


class TestPlaceDontRecompile:
    """Per device, a ranking pays a layout and a relabel; routing only where SWAPs are needed."""

    def test_post_routing_passes_run_once_per_basis_set(self, fleet16, monkeypatch):
        fleet = _two_basis_fleet(fleet16)
        translations = _count_calls(monkeypatch, BasisTranslation, "run")
        routings = _count_calls(monkeypatch, SabreRoutingPass, "run")
        reports = CliffordCanaryEstimator(shots=64, seed=4).estimate_many(_star(), fleet)
        routed = sum(1 for report in reports if report.swaps_inserted > 0)
        assert 0 < routed < len(fleet) // 4
        # Once per basis set on virtual qubits, plus once per routed device.
        assert len(translations) == 2 + routed
        # The router runs only for layouts that need SWAPs.
        assert len(routings) == routed
        _assert_fresh_reports(_star(), fleet, reports)

    def test_a_ranking_builds_each_device_graph_once(self, monkeypatch):
        # Fresh properties, so no device has built its graph yet.
        fleet = [Backend(dataclasses.replace(b.properties)) for b in generate_fleet(seed=2024, limit=16)]
        builds = _count_calls(monkeypatch, properties_module, "coupling_to_graph")
        estimator = CliffordCanaryEstimator(shots=64, seed=4)
        estimator.estimate_many(_hea(), fleet)
        estimator.estimate_many(_hea(angle=1.1), fleet)
        assert len(builds) == len(fleet)

    def test_basic_routing_leaves_the_shared_graph_unweighted(self, fleet16):
        properties = fleet16[1].properties
        graph = properties.graph()
        far = next(q for q in range(properties.num_qubits) if nx.shortest_path_length(graph, 0, q) >= 3)
        circuit = QuantumCircuit(properties.num_qubits, 2)
        circuit.cx(0, far).measure(0, 0).measure(far, 1)
        result = transpile(
            circuit, properties, initial_layout=Layout.trivial(properties.num_qubits), routing_method="basic"
        )
        assert result.swaps_inserted > 0
        assert properties.graph() is graph
        assert all(not data for _, _, data in graph.edges(data=True))


def _per_device_path(circuit, backend, shots=64, seed=4):
    """A report's numbers on the unbatched path: a full transpile, then the device's own noisy execution."""
    estimator = CliffordCanaryEstimator(shots=shots, seed=seed)
    canary = estimator.build_canary(circuit)
    compiled = transpile(canary, backend, seed=derive_seed(seed, "canary-transpile", backend.name, circuit.name))
    noisy = execute_with_noise(
        compiled.circuit,
        backend.noise_model(),
        shots=shots,
        seed=derive_seed(seed, "canary-execute", backend.name, circuit.name),
    )
    fidelity = hellinger_fidelity(noisy.counts, estimator.ideal_distribution(canary))
    return fidelity, compiled.swaps_inserted, compiled.two_qubit_gate_count()


def _numbers(report):
    return report.canary_fidelity, report.swaps_inserted, report.two_qubit_gates


class TestBatchedRanking:
    """Swap-free devices share one batched law; every report stays the per-device one."""

    @pytest.mark.parametrize("make", [_hea, _star], ids=["swap-free", "with-routed"])
    def test_reports_equal_per_device_estimates(self, fleet16, make):
        circuit = make()
        reports = CliffordCanaryEstimator(shots=64, seed=4).estimate_many(circuit, fleet16)
        assert any(report.swaps_inserted for report in reports) == (make is _star)
        solo = CliffordCanaryEstimator(shots=64, seed=4)
        for backend, report in zip(fleet16, reports):
            assert dataclasses.asdict(report) == dataclasses.asdict(solo.estimate(circuit, backend))
            assert _numbers(report) == _per_device_path(circuit, backend)

    def test_one_law_pass_per_basis_set_and_one_execution_per_routed_device(self, fleet16, monkeypatch):
        fleet = _two_basis_fleet(fleet16)
        passes = _count_calls(monkeypatch, canary_module, "outcome_laws")
        executions = _count_calls(monkeypatch, canary_module, "execute_with_noise")
        reports = CliffordCanaryEstimator(shots=64, seed=4).estimate_many(_star(), fleet)
        routed = sum(1 for report in reports if report.swaps_inserted)
        assert routed > 0
        assert len(passes) == 2
        assert sum(len(rows) for _, rows in passes) == len(fleet) - routed
        assert len(executions) == routed

    def test_a_batch_beyond_the_chunk_bound_splits_and_keeps_every_report(self, fleet16, monkeypatch):
        circuit = hardware_efficient_ansatz(5, layers=1, parameters=[0.4] * 10, measure=True).copy(name="hea_5")
        fleet = [backend for backend in fleet16 if backend.num_qubits >= circuit.num_qubits]
        chunks = []
        evolve = density_module._evolve
        monkeypatch.setattr(density_module, "_evolve", lambda c, rows: chunks.append(len(rows)) or evolve(c, rows))
        reports = CliffordCanaryEstimator(shots=64, seed=4).estimate_many(circuit, fleet)
        bound = density_module.BATCH_ENTRIES // 4**circuit.num_qubits
        swap_free = sum(1 for report in reports if not report.swaps_inserted)
        assert 1 < bound < swap_free
        assert len(chunks) > 1 and max(chunks) == bound and sum(chunks) == swap_free
        for backend, report in zip(fleet, reports):
            assert _numbers(report) == _per_device_path(circuit, backend)

    def test_in_place_calibration_drift_reaches_the_next_ranking(self):
        fleet = generate_fleet(seed=2024, limit=4)
        estimator = CliffordCanaryEstimator(shots=256, seed=4)
        before = estimator.estimate_many(_hea(), fleet)
        for backend in fleet:
            errors = backend.properties.two_qubit_error
            for edge in errors:
                errors[edge] = min(1.0, 5 * errors[edge])
        after = estimator.estimate_many(_hea(), fleet)
        assert [_numbers(report) for report in after] != [_numbers(report) for report in before]
        for backend, report in zip(fleet, after):
            assert _numbers(report) == _per_device_path(_hea(), backend, shots=256)


class TestOneRankingPerDecision:
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: FidelityPlacementPolicy(estimator="canary", canary_shots=64, seed=4),
            lambda: ThresholdFidelityPolicy(canary_shots=64, seed=4),
        ],
        ids=["fidelity", "threshold-fidelity"],
    )
    def test_decide_runs_one_estimate_many_per_ranking(self, fleet16, monkeypatch, make_policy):
        calls = _count_calls(monkeypatch, CliffordCanaryEstimator, "estimate_many")
        policy = make_policy()
        ctx = PlacementContext(fleet=fleet16, circuit=_hea(), job_name="hea_4")
        decision = policy.decide(ctx)
        assert len(calls) == 1
        assert [backend.name for backend in calls[0][2]] == [backend.name for backend in fleet16]
        solo = CliffordCanaryEstimator(shots=64, seed=4)
        fidelities = {entry.device: entry.detail["estimated_fidelity"] for entry in decision.ranked}
        assert fidelities == {backend.name: solo.estimate(_hea(), backend).canary_fidelity for backend in fleet16}
        # A repeat decision reads every score from the fidelity cache.
        ranked = len(calls)
        policy.decide(ctx)
        assert len(calls) == ranked

    def test_esp_policies_do_not_rank_canaries(self, fleet16, monkeypatch):
        calls = _count_calls(monkeypatch, CliffordCanaryEstimator, "estimate_many")
        FidelityPlacementPolicy(estimator="esp").decide(PlacementContext(fleet=fleet16, circuit=_hea()))
        assert calls == []
