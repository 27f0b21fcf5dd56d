"""Property-based tests: QASM round-trip over random circuits."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.qasm import dump_qasm, parse_qasm

_SINGLE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx")
_PARAM_GATES = ("rx", "ry", "rz", "u1")
_TWO_QUBIT = ("cx", "cz", "swap", "cu1")


@st.composite
def small_circuits(draw):
    """Random circuits of up to 4 qubits, 4 clbits and 12 operations, then measurements."""
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    num_clbits = draw(st.integers(min_value=0, max_value=4))
    circuit = QuantumCircuit(num_qubits, num_clbits)
    num_ops = draw(st.integers(min_value=0, max_value=12))
    for _ in range(num_ops):
        kind = draw(st.sampled_from(("single", "param", "two")))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        if kind == "single":
            getattr(circuit, draw(st.sampled_from(_SINGLE_QUBIT)))(qubit)
        elif kind == "param":
            angle = draw(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                                   allow_nan=False, allow_infinity=False))
            getattr(circuit, draw(st.sampled_from(_PARAM_GATES)))(angle, qubit)
        elif kind == "two" and num_qubits >= 2:
            other = draw(st.integers(min_value=0, max_value=num_qubits - 1).filter(lambda q: q != qubit))
            gate = draw(st.sampled_from(_TWO_QUBIT))
            if gate == "cu1":
                angle = draw(st.floats(min_value=-math.pi, max_value=math.pi,
                                       allow_nan=False, allow_infinity=False))
                circuit.cu1(angle, qubit, other)
            else:
                getattr(circuit, gate)(qubit, other)
    if num_clbits:
        for _ in range(draw(st.integers(min_value=0, max_value=num_qubits))):
            qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            circuit.measure(qubit, draw(st.integers(min_value=0, max_value=num_clbits - 1)))
    return circuit


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits())
def test_qasm_roundtrip_preserves_structure(circuit):
    """dump -> parse preserves gate names, operands and parameters."""
    recovered = parse_qasm(dump_qasm(circuit))
    assert recovered.num_qubits == circuit.num_qubits
    assert recovered.num_clbits == circuit.num_clbits
    assert recovered.measurement_map() == circuit.measurement_map()
    assert len(recovered) == len(circuit)
    for original, parsed in zip(circuit, recovered):
        assert parsed.name == original.name
        assert parsed.qubits == original.qubits
        assert parsed.clbits == original.clbits
        assert all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(parsed.params, original.params)
        )


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits())
def test_qasm_dump_is_stable(circuit):
    """Dumping a parsed dump reproduces the same text (idempotent export)."""
    text = dump_qasm(circuit)
    assert dump_qasm(parse_qasm(text)) == text
