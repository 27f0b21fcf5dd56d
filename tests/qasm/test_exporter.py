"""Tests for the OpenQASM 2 exporter and round-tripping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, bernstein_vazirani, qft
from repro.qasm import dump_qasm, parse_qasm, write_qasm_file
from repro.qasm.exporter import _format_parameter
from repro.simulators import StatevectorSimulator
from repro.utils.linalg import allclose_up_to_global_phase


class TestDump:
    def test_header_and_registers(self):
        circuit = QuantumCircuit(2, 2)
        text = dump_qasm(circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text and "creg c[2];" in text

    def test_gate_lines(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(math.pi / 4, 1).measure(1, 0)
        text = dump_qasm(circuit)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "rz(pi/4) q[1];" in text
        assert "measure q[1] -> c[0];" in text

    def test_pi_formatting(self):
        circuit = QuantumCircuit(1)
        circuit.rz(-math.pi, 0).rz(3 * math.pi / 2, 0).rz(0.123, 0)
        text = dump_qasm(circuit)
        assert "rz(-pi)" in text
        assert "rz(3*pi/2)" in text
        assert "rz(0.123)" in text

    def test_barrier_line(self):
        circuit = QuantumCircuit(3)
        circuit.barrier(0, 2)
        assert "barrier q[0],q[2];" in dump_qasm(circuit)

    def test_write_file(self, tmp_path):
        path = tmp_path / "circuit.qasm"
        write_qasm_file(bernstein_vazirani("101"), path)
        parsed = parse_qasm(path.read_text())
        assert parsed.num_qubits == 4


def _format_by_search(value):
    """The reference spelling: try every n*pi/d in order, n in -16..16, d in (1, 2, 3, 4, 6, 8, 16)."""
    if value == 0:
        return "0"
    for denominator in (1, 2, 3, 4, 6, 8, 16):
        for numerator in range(-16, 17):
            if numerator == 0:
                continue
            candidate = numerator * math.pi / denominator
            if abs(candidate - value) < 1e-12:
                sign = "-" if numerator < 0 else ""
                numerator = abs(numerator)
                if numerator == 1 and denominator == 1:
                    return f"{sign}pi"
                if denominator == 1:
                    return f"{sign}{numerator}*pi"
                if numerator == 1:
                    return f"{sign}pi/{denominator}"
                return f"{sign}{numerator}*pi/{denominator}"
    return repr(float(value))


def _near_pi_fractions():
    """Every n*pi/d the exporter may spell, and its neighbours just inside and outside 1e-12."""
    values = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308, 5e-324]
    for denominator in (1, 2, 3, 4, 6, 8, 16):
        for numerator in range(-18, 19):
            base = numerator * math.pi / denominator
            for offset in (0.0, 1e-13, 9.9e-13, 1.1e-12):
                values += [base + offset, base - offset]
    return values


class TestParameterSpelling:
    def test_every_pi_fraction_and_its_neighbours(self):
        for value in _near_pi_fractions():
            assert _format_parameter(value) == _format_by_search(value), value

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True) | st.floats(-60.0, 60.0))
    def test_hypothesis_floats(self, value):
        assert _format_parameter(value) == _format_by_search(value)

    def test_non_finite_values_are_spelled_as_python_does(self):
        assert [_format_parameter(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]


class TestRoundTrip:
    @pytest.mark.parametrize("circuit_factory", [
        lambda: bernstein_vazirani("1101"),
        lambda: qft(4, measure=True),
    ])
    def test_roundtrip_preserves_semantics(self, circuit_factory, statevector_simulator):
        original = circuit_factory()
        recovered = parse_qasm(dump_qasm(original))
        assert recovered.num_qubits == original.num_qubits
        state_a = statevector_simulator.statevector(original.without_measurements())
        state_b = statevector_simulator.statevector(recovered.without_measurements())
        assert allclose_up_to_global_phase(state_a, state_b)

    def test_roundtrip_preserves_measurement_map(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).measure(0, 2).measure(2, 0)
        recovered = parse_qasm(dump_qasm(circuit))
        assert recovered.measurement_map() == {0: 2, 2: 0}
