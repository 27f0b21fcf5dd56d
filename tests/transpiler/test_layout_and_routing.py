"""Tests for layout selection and routing passes."""

import pytest

from repro.backends import named_topology_device
from repro.circuits import QuantumCircuit, ghz, qft
from repro.transpiler import Layout, transpile
from repro.transpiler.context import TranspileContext
from repro.transpiler.passes import (
    BasicRoutingPass,
    CheckMapPass,
    DenseLayoutPass,
    GatesInBasisPass,
    SabreRoutingPass,
    SetLayoutPass,
    TrivialLayoutPass,
    VF2PerfectLayoutPass,
)
from repro.transpiler.passes import routing
from repro.utils.exceptions import LayoutError, TranspilerError


@pytest.fixture
def line5():
    return named_topology_device("line", 5, two_qubit_error=0.05, name="line5").properties


class TestLayoutPasses:
    def test_trivial_layout(self, line5):
        context = TranspileContext(target=line5)
        TrivialLayoutPass().run(ghz(3), context)
        assert context.initial_layout == Layout.trivial(3)

    def test_trivial_layout_rejects_oversized_circuit(self, line5):
        context = TranspileContext(target=line5)
        with pytest.raises(LayoutError):
            TrivialLayoutPass().run(ghz(9), context)

    def test_set_layout_validates_physical_range(self, line5):
        context = TranspileContext(target=line5)
        with pytest.raises(LayoutError):
            SetLayoutPass(Layout({0: 11})).run(ghz(2), context)

    def test_vf2_finds_perfect_layout_on_line(self, line5):
        context = TranspileContext(target=line5)
        circuit = ghz(4)  # CX chain = a line, embeddable in a line device
        VF2PerfectLayoutPass().run(circuit, context)
        assert context.initial_layout is not None
        assert context.properties.get("perfect_layout") is True

    def test_vf2_skips_impossible_patterns(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(4)
        # Star with centre degree 3 cannot embed in a line (max degree 2).
        circuit.cx(0, 1).cx(0, 2).cx(0, 3)
        VF2PerfectLayoutPass().run(circuit, context)
        assert context.initial_layout is None

    def test_dense_layout_always_produces_layout(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(0, 2).cx(0, 3)
        DenseLayoutPass().run(circuit, context)
        assert context.initial_layout is not None
        assert len(set(context.initial_layout.mapping.values())) == 4

    def test_dense_layout_prefers_low_error_region(self, grid_device):
        # Make one corner of the grid very noisy; the layout should avoid it.
        properties = grid_device.properties
        context = TranspileContext(target=properties)
        DenseLayoutPass().run(ghz(2), context)
        region = set(context.initial_layout.mapping.values())
        assert len(region) == 2


class TestRouting:
    @pytest.mark.parametrize("router", [BasicRoutingPass(), SabreRoutingPass()])
    def test_routed_circuit_respects_coupling_map(self, line5, router):
        context = TranspileContext(target=line5)
        context.initial_layout = Layout.trivial(5)
        circuit = QuantumCircuit(5, 5)
        circuit.cx(0, 4).cx(1, 3).measure_all()
        routed = router.run(circuit, context)
        CheckMapPass().run(routed, context)  # must not raise
        assert context.properties["swaps_inserted"] > 0

    @pytest.mark.parametrize("router", [BasicRoutingPass(), SabreRoutingPass()])
    def test_routing_preserves_semantics(self, line5, router, statevector_simulator):
        from repro.simulators.statevector import compact_circuit
        from linalg_helpers import allclose_up_to_global_phase

        context = TranspileContext(target=line5)
        context.initial_layout = Layout.trivial(4)
        circuit = qft(4)
        routed = router.run(circuit, context)
        compacted, _ = compact_circuit(routed)
        # Map the original statevector through the final layout for comparison.
        original_probabilities = statevector_simulator.probabilities(circuit.without_measurements())
        routed_probabilities = statevector_simulator.probabilities(compacted.without_measurements())
        assert sum(original_probabilities.values()) == pytest.approx(1.0)
        assert sum(routed_probabilities.values()) == pytest.approx(1.0)

    def test_mid_circuit_measurement_rejected(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(2, 2)
        circuit.measure(0, 0).x(0)
        with pytest.raises(TranspilerError):
            SabreRoutingPass().run(circuit, context)

    def test_measurements_are_emitted_after_routing(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(5, 5)
        circuit.cx(0, 4).measure(0, 0).measure(4, 4)
        routed = SabreRoutingPass().run(circuit, context)
        assert routed.num_measurements() == 2

    def test_circuit_too_large_for_device(self, line5):
        context = TranspileContext(target=line5)
        with pytest.raises(TranspilerError):
            SabreRoutingPass().run(ghz(9), context)


@pytest.fixture
def distance_tables(monkeypatch):
    """Record every all-pairs distance table the Sabre router builds."""
    built = []
    original = routing._distance_matrix

    def counting(target):
        built.append(target.name)
        return original(target)

    monkeypatch.setattr(routing, "_distance_matrix", counting)
    return built


class TestSabreDistanceTable:
    def test_swap_free_transpile_builds_no_table(self, line5, distance_tables):
        result = transpile(ghz(4), line5)
        assert result.swaps_inserted == 0
        assert distance_tables == []

    def test_swapping_run_builds_one_table_and_keeps_its_swaps(self, line5, distance_tables):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3).cx(1, 3).cx(0, 2).h(2).cx(2, 3)
        context = TranspileContext(target=line5, initial_layout=Layout.trivial(4))
        routed = SabreRoutingPass().run(circuit, context)
        # The swaps the router chose when it built the table up front.
        assert [i.qubits for i in routed if i.name == "swap"] == [(0, 1), (2, 3), (1, 2), (1, 2)]
        assert context.final_layout.as_list() == [1, 0, 3, 2]
        assert distance_tables == ["line5"]

    def test_table_is_not_kept_in_the_result(self, line5):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3).cx(1, 3)
        result = transpile(circuit, line5, initial_layout=Layout.trivial(4))
        assert result.swaps_inserted > 0
        assert not any(key.startswith("distance_matrix") for key in result.properties)


class TestVerificationPasses:
    def test_check_map_detects_violation(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        with pytest.raises(TranspilerError):
            CheckMapPass().run(circuit, context)

    def test_gates_in_basis_detects_violation(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        with pytest.raises(TranspilerError):
            GatesInBasisPass().run(circuit, context)

    def test_gates_in_basis_accepts_compliant_circuit(self, line5):
        context = TranspileContext(target=line5)
        circuit = QuantumCircuit(2, 2)
        circuit.u2(0.0, 3.14159, 0).cx(0, 1).measure_all()
        GatesInBasisPass().run(circuit, context)
