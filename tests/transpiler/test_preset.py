"""Tests for the preset transpilation pipeline."""

import pytest

from repro.backends import generate_device, named_topology_device
from repro.circuits import bernstein_vazirani, ghz, grover_search, qft
from repro.simulators import StatevectorSimulator
from repro.simulators.statevector import compact_circuit
from repro.transpiler import Layout, build_preset_pass_manager, transpile
from repro.utils.exceptions import TranspilerError


def _distributions_match(circuit, compiled, tolerance=1e-8):
    simulator = StatevectorSimulator(seed=0)
    compacted, _ = compact_circuit(compiled)
    ideal = simulator.probabilities(circuit)
    actual = simulator.probabilities(compacted)
    keys = set(ideal) | set(actual)
    return max(abs(ideal.get(k, 0.0) - actual.get(k, 0.0)) for k in keys) < tolerance


class TestTranspile:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_equivalence_across_levels(self, line_device, level):
        circuit = grover_search(3)
        result = transpile(circuit, line_device, optimization_level=level, seed=1)
        assert _distributions_match(circuit, result.circuit)

    def test_output_respects_basis_and_coupling(self, random_device):
        result = transpile(qft(4, measure=True), random_device, seed=2)
        basis = set(random_device.properties.basis_gates) | {"measure", "barrier"}
        coupled = {tuple(sorted(edge)) for edge in random_device.properties.coupling_map}
        for instruction in result.circuit:
            assert instruction.name in basis
            if instruction.is_two_qubit_gate:
                assert tuple(sorted(instruction.qubits)) in coupled

    def test_result_reports_layouts_and_swaps(self, line_device):
        result = transpile(qft(4, measure=True), line_device, seed=3)
        assert result.target_name == line_device.name
        assert len(result.initial_layout) >= 4
        assert result.swaps_inserted >= 0
        assert result.two_qubit_gate_count() > 0

    def test_initial_layout_override(self, line_device):
        layout = Layout({0: 3, 1: 4, 2: 5, 3: 6})
        result = transpile(ghz(4), line_device, initial_layout=layout, seed=1)
        assert result.initial_layout == layout
        used = result.circuit.used_qubits()
        assert used <= set(range(line_device.num_qubits))

    def test_basic_routing_method(self, line_device):
        circuit = qft(4, measure=True)
        result = transpile(circuit, line_device, routing_method="basic", seed=1)
        assert _distributions_match(circuit, result.circuit)

    def test_invalid_optimization_level(self, line_device):
        with pytest.raises(TranspilerError):
            transpile(ghz(2), line_device, optimization_level=5)

    def test_invalid_routing_method(self, line_device):
        with pytest.raises(TranspilerError):
            transpile(ghz(2), line_device, routing_method="teleport")

    def test_invalid_target_type(self):
        with pytest.raises(TranspilerError):
            transpile(ghz(2), target="not-a-backend")

    def test_transpile_to_random_large_device(self):
        device = generate_device(60, 0.45, seed=12)
        circuit = bernstein_vazirani("1" * 9)
        result = transpile(circuit, device, seed=4)
        assert result.circuit.num_qubits == 60
        assert result.circuit.num_measurements() == 9

    def test_optimization_reduces_or_preserves_gate_count(self, line_device):
        circuit = qft(4, measure=True)
        unoptimised = transpile(circuit, line_device, optimization_level=0, seed=5)
        optimised = transpile(circuit, line_device, optimization_level=2, seed=5)
        assert optimised.circuit.size() <= unoptimised.circuit.size() * 1.2


class TestPassManagerConstruction:
    def test_level_zero_has_fewer_passes(self, line_device):
        low = build_preset_pass_manager(line_device.properties, optimization_level=0)
        high = build_preset_pass_manager(line_device.properties, optimization_level=2)
        assert len(low.passes) < len(high.passes)

    def test_pass_trace_recorded(self, line_device):
        from repro.transpiler.context import TranspileContext

        manager = build_preset_pass_manager(line_device.properties)
        context = TranspileContext.for_target(line_device.properties)
        manager.run(ghz(3), context)
        trace = context.properties["pass_trace"]
        assert len(trace) == len(manager.passes)

    def test_pass_manager_never_asks_for_depth(self, line_device, monkeypatch):
        from repro.circuits import QuantumCircuit
        from repro.transpiler.context import TranspileContext

        def no_depth(self):
            raise AssertionError("PassManager.run called depth()")

        monkeypatch.setattr(QuantumCircuit, "depth", no_depth)
        manager = build_preset_pass_manager(line_device.properties)
        context = TranspileContext.for_target(line_device.properties)
        manager.run(qft(4, measure=True), context)
        assert {key for entry in context.properties["pass_trace"] for key in entry} == {"pass", "size"}
