"""Property-based tests for the transpiler."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import Backend, generate_device, generate_fleet, named_topology_device
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


def _one_pipeline(circuit, device, routing_method="sabre"):
    """The preset pipeline run as a single pass manager over one context."""
    context = TranspileContext.for_target(device.properties)
    compiled = build_preset_pass_manager(device.properties, routing_method=routing_method).run(circuit, context)
    initial = context.initial_layout or Layout.trivial(circuit.num_qubits)
    return TranspileResult(
        circuit=compiled,
        initial_layout=initial,
        final_layout=context.final_layout or initial,
        swaps_inserted=int(context.properties.get("swaps_inserted", 0)),
        target_name=device.name,
    )


_ROUTER_PASSES = {"sabre": "SabreRoutingPass", "basic": "BasicRoutingPass"}


def _assert_trace_names_the_path(result, routing_method):
    """A swap-free result was relabelled, any other one routed; ``pass_trace`` says which."""
    trace = [entry["pass"] for entry in result.properties["pass_trace"]]
    router = _ROUTER_PASSES[routing_method]
    if result.swaps_inserted == 0:
        assert "RelabelPass" in trace and router not in trace
    else:
        assert router in trace and "RelabelPass" not in trace
    assert trace[-2:] == ["CheckMapPass", "GatesInBasisPass"]


@settings(max_examples=30, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=5_000),
    num_qubits=st.integers(min_value=2, max_value=5),
    depth=st.integers(min_value=1, max_value=6),
    two_qubit_probability=st.sampled_from([0.1, 0.25, 0.4]),
    routing_method=st.sampled_from(sorted(_ROUTER_PASSES)),
)
def test_stages_compose_to_the_one_pipeline(circuit_seed, num_qubits, depth, two_qubit_probability, routing_method):
    """physical ∘ virtual equals the single preset pass manager and a plain transpile().

    One virtual circuit is compiled for the line, grid and random devices in
    turn, so its memoised post-routing output is filled by the first
    swap-free device and relabelled for the others.
    """
    circuit = random_circuit(
        num_qubits, depth, seed=circuit_seed, two_qubit_probability=two_qubit_probability, measure=True
    )
    virtual = virtual_stage(circuit, _DEVICES["line"])
    for device in _DEVICES.values():
        staged = transpile(virtual, device, routing_method=routing_method)
        _same_result(staged, _one_pipeline(circuit, device, routing_method))
        _same_result(staged, transpile(circuit, device, routing_method=routing_method))
        _assert_trace_names_the_path(staged, routing_method)


@pytest.mark.parametrize("routing_method", sorted(_ROUTER_PASSES))
@pytest.mark.parametrize("swaps", [False, True])
def test_stages_compose_with_and_without_swaps(swaps, routing_method):
    device = _DEVICES["line"]
    circuit = QuantumCircuit(4, 4)
    circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    if swaps:
        circuit.cx(0, 2).cx(1, 3).cx(0, 3)
    circuit.measure_all()
    staged = transpile(virtual_stage(circuit, device), device, routing_method=routing_method)
    assert (staged.swaps_inserted > 0) is swaps
    _same_result(staged, _one_pipeline(circuit, device, routing_method))
    _assert_trace_names_the_path(staged, routing_method)


def _unitary_columns(num_qubits, columns):
    """Stack ``columns(j)`` for every basis input ``j`` of ``num_qubits`` qubits."""
    return np.stack([columns(j) for j in range(2**num_qubits)], axis=1)


def _prepared(basis_input, positions, width, body):
    """``body`` on ``width`` qubits after X gates writing ``basis_input``'s bit ``v`` at ``positions[v]``."""
    circuit = QuantumCircuit(width, 0)
    for virtual, position in enumerate(positions):
        if basis_input >> virtual & 1:
            circuit.x(position)
    for instruction in body:
        circuit.append(instruction)
    return circuit


def _compiled_unitary(result, num_virtual):
    """The compiled circuit's action on the virtual qubits, read through its reported layouts.

    Column ``j`` writes ``j`` onto the initial layout's physical qubits
    (every other qubit starts in |0>), runs the compiled gates and reads the
    amplitudes off the final layout's qubits.  Amplitude left anywhere else
    (an ancilla not returned to |0>) shows up as a column norm below 1.
    """
    initial = [result.initial_layout.mapping[v] for v in range(num_virtual)]
    final = [result.final_layout.mapping[v] for v in range(num_virtual)]
    active = sorted(result.circuit.used_qubits() | set(initial) | set(final))
    index = {physical: position for position, physical in enumerate(active)}
    body = [
        instruction.with_qubits([index[q] for q in instruction.qubits])
        for instruction in result.circuit
        if not instruction.is_directive
    ]
    simulator = StatevectorSimulator(seed=0)
    outputs = [sum((k >> v & 1) << index[final[v]] for v in range(num_virtual)) for k in range(2**num_virtual)]

    def column(j):
        state = simulator.statevector(_prepared(j, [index[p] for p in initial], len(active), body))
        return state[outputs]

    return _unitary_columns(num_virtual, column)


def _input_unitary(circuit):
    body = list(circuit.without_measurements())
    simulator = StatevectorSimulator(seed=0)
    positions = list(range(circuit.num_qubits))
    return _unitary_columns(
        circuit.num_qubits, lambda j: simulator.statevector(_prepared(j, positions, circuit.num_qubits, body))
    )


@settings(max_examples=25, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=5_000),
    num_qubits=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=1, max_value=5),
    device_key=st.sampled_from(sorted(_DEVICES)),
    routing_method=st.sampled_from(sorted(_ROUTER_PASSES)),
)
def test_compiled_unitary_equals_the_input_up_to_global_phase(
    circuit_seed, num_qubits, depth, device_key, routing_method
):
    """An oracle that shares no transpiler code: statevector columns through the reported layouts."""
    device = _DEVICES[device_key]
    circuit = random_circuit(num_qubits, depth, seed=circuit_seed, measure=True)
    result = transpile(circuit, device, routing_method=routing_method)
    expected = _input_unitary(circuit)
    actual = _compiled_unitary(result, num_qubits)
    assert np.allclose(np.linalg.norm(actual, axis=0), 1.0, atol=1e-9)
    pivot = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    phase = actual[pivot] / expected[pivot]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.allclose(actual, phase * expected, atol=1e-8)
    final = result.final_layout.mapping
    assert result.circuit.measurement_map() == {final[q]: c for q, c in circuit.measurement_map().items()}


def test_virtual_circuit_is_compiled_only_for_its_options():
    circuit = random_circuit(3, 3, seed=1, measure=True)
    virtual = virtual_stage(circuit, _DEVICES["line"])
    u3_only = named_topology_device("line", 6, two_qubit_error=0.02, name="u3_line6", basis_gates=("u3", "cx"))
    with pytest.raises(TranspilerError):
        transpile(virtual, u3_only)
    with pytest.raises(TranspilerError):
        transpile(virtual, _DEVICES["line"], optimization_level=1)


def test_racing_transpiles_of_one_virtual_circuit_agree():
    """Threads placing one virtual circuit on fresh devices race on its memo and on each graph memo."""
    fleet = [Backend(dataclasses.replace(b.properties)) for b in generate_fleet(seed=2024, limit=8)]
    circuit = random_circuit(4, 4, seed=3, two_qubit_probability=0.25, measure=True)
    expected = {backend.name: _one_pipeline(circuit, backend) for backend in fleet}
    # Fresh copies shared by every thread: no graph is built before the race.
    shared = [Backend(dataclasses.replace(b.properties)) for b in fleet]
    virtual = virtual_stage(circuit, fleet[0])
    results = {}
    racers = 6
    start = threading.Barrier(racers)

    def place(index):
        start.wait()
        results[index] = [transpile(virtual, backend) for backend in shared[index % 2 :] + shared[: index % 2]]

    threads = [threading.Thread(target=place, args=(index,)) for index in range(racers)]
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
    assert len(results) == racers
    for placed in results.values():
        for result in placed:
            _same_result(result, expected[result.target_name])
