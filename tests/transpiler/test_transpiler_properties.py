"""Property-based tests for the transpiler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import generate_device, named_topology_device
from repro.circuits import QuantumCircuit
from repro.circuits.random_circuits import random_circuit
from repro.simulators import StatevectorSimulator
from repro.simulators.statevector import compact_circuit
from repro.transpiler import (
    Layout,
    TranspileContext,
    TranspileResult,
    build_preset_pass_manager,
    transpile,
    virtual_stage,
)
from repro.utils.exceptions import TranspilerError

_DEVICES = {
    "line": named_topology_device("line", 6, two_qubit_error=0.02, name="prop_line6"),
    "grid": named_topology_device("grid", 6, two_qubit_error=0.02, name="prop_grid6"),
    "random": generate_device(12, 0.3, seed=314),
}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    num_qubits=st.integers(min_value=2, max_value=5),
    depth=st.integers(min_value=1, max_value=5),
    device_key=st.sampled_from(sorted(_DEVICES)),
)
def test_transpiled_circuit_preserves_output_distribution(seed, num_qubits, depth, device_key):
    """For random circuits, transpilation never changes the ideal distribution."""
    device = _DEVICES[device_key]
    circuit = random_circuit(num_qubits, depth, seed=seed, measure=True)
    result = transpile(circuit, device, seed=seed)
    simulator = StatevectorSimulator(seed=0)
    compacted, _ = compact_circuit(result.circuit)
    ideal = simulator.probabilities(circuit)
    compiled = simulator.probabilities(compacted)
    keys = set(ideal) | set(compiled)
    assert max(abs(ideal.get(k, 0.0) - compiled.get(k, 0.0)) for k in keys) < 1e-7


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    num_qubits=st.integers(min_value=2, max_value=5),
    depth=st.integers(min_value=1, max_value=5),
)
def test_transpiled_circuit_respects_device_constraints(seed, num_qubits, depth):
    """Every output gate is in the basis and every 2q gate is on a coupled pair."""
    device = _DEVICES["random"]
    circuit = random_circuit(num_qubits, depth, seed=seed, measure=True)
    result = transpile(circuit, device, seed=seed)
    basis = set(device.properties.basis_gates) | {"measure", "barrier"}
    coupled = {tuple(sorted(edge)) for edge in device.properties.coupling_map}
    for instruction in result.circuit:
        assert instruction.name in basis
        if instruction.is_two_qubit_gate:
            assert tuple(sorted(instruction.qubits)) in coupled


def _same_result(left, right):
    assert left.circuit == right.circuit
    assert left.initial_layout.as_list() == right.initial_layout.as_list()
    assert left.final_layout.as_list() == right.final_layout.as_list()
    assert left.swaps_inserted == right.swaps_inserted


@settings(max_examples=15, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=5_000),
    seeds=st.lists(st.integers(min_value=0, max_value=2**31), min_size=2, max_size=2, unique=True),
    num_qubits=st.integers(min_value=2, max_value=5),
    device_key=st.sampled_from(sorted(_DEVICES)),
)
def test_transpile_ignores_its_seed(circuit_seed, seeds, num_qubits, device_key):
    """No pass reads randomness, so the seed never changes a result.

    This is what lets a fleet ranking share one virtual stage across devices.
    """
    device = _DEVICES[device_key]
    circuit = random_circuit(num_qubits, 4, seed=circuit_seed, measure=True)
    first, second = (transpile(circuit, device, seed=seed) for seed in seeds)
    _same_result(first, second)


def _one_pipeline(circuit, device):
    """The preset pipeline run as a single pass manager over one context."""
    context = TranspileContext.for_target(device.properties)
    compiled = build_preset_pass_manager(device.properties).run(circuit, context)
    initial = context.initial_layout or Layout.trivial(circuit.num_qubits)
    return TranspileResult(
        circuit=compiled,
        initial_layout=initial,
        final_layout=context.final_layout or initial,
        swaps_inserted=int(context.properties.get("swaps_inserted", 0)),
        target_name=device.name,
    )


@settings(max_examples=20, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=5_000),
    num_qubits=st.integers(min_value=2, max_value=5),
    depth=st.integers(min_value=1, max_value=6),
    device_key=st.sampled_from(sorted(_DEVICES)),
)
def test_stages_compose_to_the_one_pipeline(circuit_seed, num_qubits, depth, device_key):
    """physical ∘ virtual equals the single preset pass manager and a plain transpile()."""
    device = _DEVICES[device_key]
    circuit = random_circuit(num_qubits, depth, seed=circuit_seed, measure=True)
    staged = transpile(virtual_stage(circuit, device), device)
    _same_result(staged, _one_pipeline(circuit, device))
    _same_result(staged, transpile(circuit, device))


@pytest.mark.parametrize("swaps", [False, True])
def test_stages_compose_with_and_without_swaps(swaps):
    device = _DEVICES["line"]
    circuit = QuantumCircuit(4, 4)
    circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    if swaps:
        circuit.cx(0, 2).cx(1, 3).cx(0, 3)
    circuit.measure_all()
    staged = transpile(virtual_stage(circuit, device), device)
    assert (staged.swaps_inserted > 0) is swaps
    _same_result(staged, _one_pipeline(circuit, device))


def test_virtual_circuit_is_compiled_only_for_its_options():
    circuit = random_circuit(3, 3, seed=1, measure=True)
    virtual = virtual_stage(circuit, _DEVICES["line"])
    u3_only = named_topology_device("line", 6, two_qubit_error=0.02, name="u3_line6", basis_gates=("u3", "cx"))
    with pytest.raises(TranspilerError):
        transpile(virtual, u3_only)
    with pytest.raises(TranspilerError):
        transpile(virtual, _DEVICES["line"], optimization_level=1)
