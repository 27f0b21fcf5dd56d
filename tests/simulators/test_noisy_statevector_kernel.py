"""Bit-identity of the Monte-Carlo statevector kernel.

:class:`NoisyStatevectorSimulator` injects Pauli errors with one gather per
gate and tallies integer-keyed outcomes.  The reference below keeps the
straightforward form of the same algorithm — one ``apply_matrix`` per drawn
Pauli label and operand, one bit string per shot — and every test asserts
that both produce the same counts (in the same insertion order) and leave
the RNG in the same state under a fixed seed.
"""

from collections import Counter
from functools import reduce

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.simulators import NoiseModel, NoisyStatevectorSimulator
from repro.simulators.noise import _PAULI_LABELS, _TWO_QUBIT_PAULIS
from repro.simulators.noisy import _apply_paulis
from repro.simulators.statevector import apply_matrix

_PAULI_MATRICES = {label: gate_matrix(label) for label in _PAULI_LABELS}


class _ReferenceSimulator(NoisyStatevectorSimulator):
    """Per-label ``apply_matrix`` injection and string-keyed sampling."""

    def __init__(self, seed):
        super().__init__(seed=seed)
        self.drawn = {1: set(), 2: set()}

    def _inject_pauli_errors(self, states, qubits, error_rate, num_qubits):
        shots = states.shape[0]
        error_mask = self._rng.random(shots) < error_rate
        error_indices = np.nonzero(error_mask)[0]
        if error_indices.size == 0:
            return states
        if len(qubits) == 1:
            choices = self._rng.integers(0, len(_PAULI_LABELS), size=error_indices.size)
            self.drawn[1].update(choices.tolist())
            for label_index, label in enumerate(_PAULI_LABELS):
                subset = error_indices[choices == label_index]
                if subset.size:
                    states[subset] = apply_matrix(
                        states[subset], _PAULI_MATRICES[label], qubits, num_qubits
                    )
            return states
        choices = self._rng.integers(0, len(_TWO_QUBIT_PAULIS), size=error_indices.size)
        self.drawn[2].update(choices.tolist())
        for pauli_index, (pauli_a, pauli_b) in enumerate(_TWO_QUBIT_PAULIS):
            subset = error_indices[choices == pauli_index]
            if subset.size == 0:
                continue
            if pauli_a is not None:
                states[subset] = apply_matrix(
                    states[subset], _PAULI_MATRICES[pauli_a], (qubits[0],), num_qubits
                )
            if pauli_b is not None:
                states[subset] = apply_matrix(
                    states[subset], _PAULI_MATRICES[pauli_b], (qubits[1],), num_qubits
                )
        return states

    def _sample_counts(self, states, circuit, noise_model, shots):
        probabilities = np.abs(states) ** 2
        row_sums = probabilities.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        probabilities /= row_sums
        cumulative = np.cumsum(probabilities, axis=1)
        draws = self._rng.random(shots)
        outcome_indices = (cumulative < draws[:, None]).sum(axis=1)
        outcome_indices = np.clip(outcome_indices, 0, probabilities.shape[1] - 1)
        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        width = max(circuit.num_clbits, 1)
        bits = np.zeros((shots, width), dtype=np.uint8)
        for qubit in sorted(measurement_map):
            clbit = measurement_map[qubit]
            values = (outcome_indices >> qubit) & 1
            flip_probability = noise_model.measurement_error(qubit)
            if flip_probability > 0.0:
                flips = self._rng.random(shots) < flip_probability
                values = values ^ flips.astype(np.uint8)
            bits[:, width - 1 - clbit] = values
        counts = Counter("".join("1" if bit else "0" for bit in row) for row in bits)
        return dict(counts)


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "u3")
_TWO_QUBIT = ("cx", "cz", "cy", "ch", "swap", "crz", "rzz")


def _random_circuit(num_qubits, depth, rng, measure=True):
    """Random gates on random operands, two-qubit operands in either order."""
    circuit = QuantumCircuit(num_qubits, num_qubits, name=f"kernel_{num_qubits}")
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < 0.5:
            name = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]
            qubits = rng.choice(num_qubits, size=2, replace=False).tolist()
        else:
            name = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]
            qubits = [int(rng.integers(num_qubits))]
        params = rng.uniform(0, 2 * np.pi, size=3)
        getattr(circuit, name)(*params[: _num_params(name)], *qubits)
    if measure:
        for qubit in range(num_qubits):
            circuit.measure(qubit, qubit)
    return circuit


def _num_params(name):
    return {"rx": 1, "ry": 1, "rz": 1, "crz": 1, "rzz": 1, "u3": 3}.get(name, 0)


def _noise(num_qubits, one=0.02, two=0.08, readout=0.05):
    return NoiseModel.uniform(
        num_qubits, one_qubit_error=one, two_qubit_error=two, readout_error=readout
    )


def _assert_identical(circuit, noise, shots, seed):
    reference = _ReferenceSimulator(seed)
    expected = reference.run(circuit, noise, shots=shots).counts
    kernel = NoisyStatevectorSimulator(seed=seed)
    actual = kernel.run(circuit, noise, shots=shots).counts
    assert list(actual.items()) == list(expected.items())
    assert kernel._rng.bit_generator.state == reference._rng.bit_generator.state
    return reference


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_circuits_match_reference(num_qubits, seed):
    rng = np.random.default_rng(1000 * num_qubits + seed)
    circuit = _random_circuit(num_qubits, depth=4 * num_qubits + 2, rng=rng)
    _assert_identical(circuit, _noise(num_qubits), shots=300, seed=seed)


def test_every_pauli_label_is_drawn_and_matches():
    rng = np.random.default_rng(7)
    circuit = _random_circuit(4, depth=30, rng=rng)
    reference = _assert_identical(circuit, _noise(4, one=0.6, two=0.8), shots=256, seed=11)
    assert reference.drawn[1] == set(range(len(_PAULI_LABELS)))
    assert reference.drawn[2] == set(range(len(_TWO_QUBIT_PAULIS)))


def test_high_operand_first_two_qubit_gates():
    circuit = QuantumCircuit(3, 3)
    circuit.h(2).cx(2, 0).ry(0.7, 1).cz(1, 0).swap(2, 1).crz(1.1, 2, 1).rzz(0.4, 1, 0)
    for qubit in range(3):
        circuit.measure(qubit, qubit)
    _assert_identical(circuit, _noise(3, one=0.3, two=0.5), shots=400, seed=5)


def test_three_qubit_gate_errors_on_first_two_operands():
    circuit = QuantumCircuit(3, 3)
    circuit.h(0).h(2).ccx(2, 0, 1).t(1).ccz(1, 2, 0)
    for qubit in range(3):
        circuit.measure(qubit, qubit)
    _assert_identical(circuit, _noise(3, one=0.2, two=0.5), shots=300, seed=9)


def test_readout_flips_only():
    rng = np.random.default_rng(3)
    circuit = _random_circuit(3, depth=8, rng=rng)
    noise = NoiseModel(readout_error={0: 0.3, 1: 0.0, 2: 0.45})
    _assert_identical(circuit, noise, shots=500, seed=4)


def test_measurement_map_with_gaps():
    circuit = QuantumCircuit(3, 7)
    circuit.h(0).cx(0, 2).ry(0.9, 1)
    circuit.measure(0, 6).measure(2, 1)
    _assert_identical(circuit, _noise(3), shots=400, seed=12)


def test_two_qubits_sent_to_one_classical_bit():
    circuit = QuantumCircuit(3, 2)
    circuit.h(0).h(1).cx(1, 2)
    circuit.measure(0, 1).measure(2, 1).measure(1, 0)
    _assert_identical(circuit, _noise(3, readout=0.2), shots=400, seed=13)


def test_classical_register_wider_than_an_int64():
    circuit = QuantumCircuit(2, 80)
    circuit.h(0).cx(0, 1)
    circuit.measure(0, 75).measure(1, 3)
    _assert_identical(circuit, _noise(2), shots=200, seed=14)


def test_unmeasured_circuit_uses_the_default_map():
    rng = np.random.default_rng(21)
    circuit = _random_circuit(4, depth=12, rng=rng, measure=False)
    _assert_identical(circuit, _noise(4), shots=300, seed=15)


def test_single_shot():
    rng = np.random.default_rng(22)
    circuit = _random_circuit(3, depth=10, rng=rng)
    for seed in range(5):
        _assert_identical(circuit, _noise(3, one=0.3, two=0.5, readout=0.3), shots=1, seed=seed)


# --------------------------------------------------------------------------- #
# The Pauli gather against explicit matrix products
# --------------------------------------------------------------------------- #
def _explicit(states, factors, num_qubits):
    """Apply ``{qubit: label}`` as a dense 2^n x 2^n Kronecker product."""
    # Little-endian: qubit 0 is the least significant bit, the last factor.
    matrices = [
        _PAULI_MATRICES[factors[qubit]] if factors.get(qubit) else np.eye(2)
        for qubit in reversed(range(num_qubits))
    ]
    return states @ reduce(np.kron, matrices).T


def _random_states(batch, num_qubits, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(size=(batch, 2**num_qubits))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _gather(states, rows, operands, choices, num_qubits):
    updated = states.copy()
    _apply_paulis(updated, np.asarray(rows), operands, np.asarray(choices), num_qubits)
    return updated


@pytest.mark.parametrize("label_index", range(len(_PAULI_LABELS)))
def test_gather_matches_single_qubit_pauli(label_index):
    num_qubits, operand = 3, 1
    states = _random_states(6, num_qubits, seed=label_index)
    gathered = _gather(states, range(6), (operand,), [label_index] * 6, num_qubits)
    expected = _explicit(states, {operand: _PAULI_LABELS[label_index]}, num_qubits)
    np.testing.assert_array_equal(gathered, expected)


@pytest.mark.parametrize("label_index", range(len(_TWO_QUBIT_PAULIS)))
def test_gather_matches_two_qubit_pauli(label_index):
    num_qubits, operands = 4, (3, 1)
    states = _random_states(5, num_qubits, seed=100 + label_index)
    gathered = _gather(states, range(5), operands, [label_index] * 5, num_qubits)
    pauli_a, pauli_b = _TWO_QUBIT_PAULIS[label_index]
    expected = _explicit(states, {operands[0]: pauli_a, operands[1]: pauli_b}, num_qubits)
    np.testing.assert_array_equal(gathered, expected)


def test_gather_applies_a_different_label_per_row():
    num_qubits, operands = 3, (0, 2)
    labels = len(_TWO_QUBIT_PAULIS)
    states = _random_states(labels, num_qubits, seed=7)
    gathered = _gather(states, range(labels), operands, range(labels), num_qubits)
    for row, (pauli_a, pauli_b) in enumerate(_TWO_QUBIT_PAULIS):
        expected = _explicit(states[row : row + 1], {0: pauli_a, 2: pauli_b}, num_qubits)
        np.testing.assert_array_equal(gathered[row : row + 1], expected)


def test_gather_leaves_unselected_rows_untouched():
    num_qubits = 2
    states = _random_states(4, num_qubits, seed=8)
    gathered = _gather(states, [3, 1], (0,), [1, 2], num_qubits)
    np.testing.assert_array_equal(gathered[[0, 2]], states[[0, 2]])
    np.testing.assert_array_equal(gathered[3], _explicit(states[3:4], {0: "y"}, num_qubits)[0])
    np.testing.assert_array_equal(gathered[1], _explicit(states[1:2], {0: "z"}, num_qubits)[0])
