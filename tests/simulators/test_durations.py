"""Tests for gate durations and as-soon-as-possible scheduling."""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.simulators import GateDurations, circuit_duration, qubit_finish_times
from repro.simulators.durations import DEFAULT_ONE_QUBIT_NS, DEFAULT_READOUT_NS, DEFAULT_TWO_QUBIT_NS
from repro.utils.exceptions import SimulationError


class TestGateDurations:
    def test_defaults_are_positive(self):
        durations = GateDurations()
        assert durations.one_qubit_ns > 0
        assert durations.two_qubit_ns > durations.one_qubit_ns
        assert durations.readout_ns > durations.two_qubit_ns

    def test_duration_of_dispatches_on_arity(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        assert durations.duration_of(1) == 10
        assert durations.duration_of(2) == 100
        assert durations.duration_of(1, is_measurement=True) == 1000
        assert durations.duration_of(3) == 200

    def test_rejects_negative_durations(self):
        with pytest.raises(SimulationError):
            GateDurations(one_qubit_ns=-1)

    @pytest.mark.parametrize("field", ["one_qubit_ns", "two_qubit_ns", "readout_ns"])
    def test_each_duration_must_be_non_negative(self, field):
        with pytest.raises(SimulationError, match=field):
            GateDurations(**{field: -0.5})

    def test_zero_durations_are_allowed(self):
        durations = GateDurations(one_qubit_ns=0, two_qubit_ns=0, readout_ns=0)
        assert durations.duration_of(1) == durations.duration_of(3) == 0
        assert durations.duration_of(1, is_measurement=True) == 0


class TestScheduling:
    def _bell(self) -> QuantumCircuit:
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        return circuit

    def test_finish_times_respect_dependencies(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        finish = qubit_finish_times(self._bell(), durations)
        # The CX cannot start before the H finishes, so both qubits finish together.
        assert finish[0] == finish[1] == 10 + 100 + 1000

    def test_circuit_duration_is_max_finish_time(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        assert circuit_duration(self._bell(), durations) == 1110

    def test_barrier_synchronises_operands(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=0)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.x(1)
        finish = qubit_finish_times(circuit, durations)
        # The x on qubit 1 cannot start until the barrier level set by the h.
        assert finish[1] == 20

    def test_empty_circuit_has_zero_duration(self):
        assert circuit_duration(QuantumCircuit(3)) == 0.0

    def test_default_durations_apply_when_none_are_given(self):
        expected = DEFAULT_ONE_QUBIT_NS + DEFAULT_TWO_QUBIT_NS + DEFAULT_READOUT_NS
        assert circuit_duration(self._bell()) == pytest.approx(expected)
        assert circuit_duration(self._bell(), None) == circuit_duration(self._bell(), GateDurations())

    def test_gates_on_disjoint_qubits_run_in_parallel(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.h(1)
        circuit.x(2)
        assert qubit_finish_times(circuit, durations) == {0: 10, 1: 10, 2: 10}
        circuit.h(0)
        assert qubit_finish_times(circuit, durations) == {0: 20, 1: 10, 2: 10}
        assert circuit_duration(circuit, durations) == 20

    def test_readouts_of_independent_qubits_overlap(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        circuit = QuantumCircuit(3)
        circuit.measure_all()
        assert circuit_duration(circuit, durations) == 1000

    def test_undecomposed_multi_qubit_gate_is_charged_as_a_cx_ladder(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        circuit = QuantumCircuit(4)
        circuit.x(3)
        circuit.ccx(0, 1, 2)
        assert qubit_finish_times(circuit, durations) == {0: 200, 1: 200, 2: 200, 3: 10}

    def test_barrier_on_a_subset_leaves_the_other_qubits_free(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=0)
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.barrier(0, 1)
        circuit.x(1)
        circuit.x(2)
        finish = qubit_finish_times(circuit, durations)
        # Qubit 1 waits for the barrier level; qubit 2 is outside the barrier.
        assert finish == {0: 10, 1: 20, 2: 10}

    def test_untouched_qubits_finish_at_zero(self):
        durations = GateDurations(one_qubit_ns=10, two_qubit_ns=100, readout_ns=1000)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        finish = qubit_finish_times(circuit, durations)
        assert set(finish) == {0, 1, 2, 3}
        assert finish[2] == finish[3] == 0.0
