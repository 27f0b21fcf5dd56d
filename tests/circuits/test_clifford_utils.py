"""Tests for the shared single-qubit Clifford utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.clifford_utils import (
    clifford_sequence_for,
    closest_single_qubit_clifford,
    single_qubit_clifford_library,
)
from repro.circuits.gates import gate_matrix
from repro.circuits.instruction import Instruction
from linalg_helpers import allclose_up_to_global_phase


class TestLibrary:
    def test_library_has_24_elements(self):
        assert len(single_qubit_clifford_library()) == 24

    def test_library_elements_are_distinct(self):
        matrices = [matrix for _, matrix in single_qubit_clifford_library()]
        for i, a in enumerate(matrices):
            for b in matrices[i + 1:]:
                assert abs(np.trace(a.conj().T @ b)) / 2.0 < 1.0 - 1e-9

    def test_sequences_reproduce_matrices(self):
        for sequence, matrix in single_qubit_clifford_library():
            product = np.eye(2, dtype=complex)
            for name in sequence:
                product = gate_matrix(name) @ product
            assert allclose_up_to_global_phase(product, matrix)


class TestClosestClifford:
    def test_exact_clifford_maps_to_itself(self):
        sequence, overlap = closest_single_qubit_clifford(gate_matrix("h"))
        assert overlap > 1 - 1e-9
        assert sequence == ("h",)

    def test_rz_quarter_turn_is_s(self):
        sequence, overlap = closest_single_qubit_clifford(gate_matrix("rz", (math.pi / 2,)))
        assert overlap > 1 - 1e-9
        product = np.eye(2, dtype=complex)
        for name in sequence:
            product = gate_matrix(name) @ product
        assert allclose_up_to_global_phase(product, gate_matrix("s"))

    def test_t_gate_is_not_exactly_clifford(self):
        _, overlap = closest_single_qubit_clifford(gate_matrix("t"))
        assert overlap < 1 - 1e-6
        assert overlap > 0.9


def _closest_by_loop(matrix):
    """The per-candidate reference: one trace per library entry, first wins within 1e-12."""
    matrix = np.asarray(matrix, dtype=complex)
    best_sequence, best_overlap = ("id",), -1.0
    for sequence, clifford in single_qubit_clifford_library():
        overlap = abs(np.trace(clifford.conj().T @ matrix)) / 2.0
        if overlap > best_overlap + 1e-12:
            best_overlap, best_sequence = overlap, sequence
    return best_sequence, best_overlap


def _tie_cases():
    """Unitaries whose overlaps tie between library entries, exactly or within 1e-12."""
    cases = [gate_matrix("t"), gate_matrix("tdg")]
    cases += [
        gate_matrix("rz", (k * math.pi / 8 + epsilon,))
        for k in range(-16, 17)
        for epsilon in (0.0, 1e-13, -1e-13, 1e-12, -1e-12)
    ]
    for _, clifford in single_qubit_clifford_library():
        for epsilon in (1e-13, -1e-13):
            cases.append(clifford @ gate_matrix("rz", (epsilon,)))
            cases.append(clifford + epsilon)
    return cases


_ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


class TestClosestCliffordMatchesTheLoop:
    @pytest.mark.parametrize("matrix", _tie_cases())
    def test_ties_pick_the_same_entry(self, matrix):
        sequence, overlap = closest_single_qubit_clifford(matrix)
        expected_sequence, expected_overlap = _closest_by_loop(matrix)
        assert sequence == expected_sequence
        assert overlap == pytest.approx(expected_overlap, rel=0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(_ANGLES, _ANGLES, _ANGLES, _ANGLES)
    def test_random_unitaries_pick_the_same_entry(self, theta, phi, lam, phase):
        matrix = np.exp(1j * phase) * gate_matrix("u3", (theta, phi, lam))
        sequence, overlap = closest_single_qubit_clifford(matrix)
        expected_sequence, expected_overlap = _closest_by_loop(matrix)
        assert sequence == expected_sequence
        assert overlap == pytest.approx(expected_overlap, rel=0, abs=1e-15)


class TestCliffordSequenceFor:
    def test_named_native_gate(self):
        assert clifford_sequence_for(Instruction("cx", (0, 1))) == ("cx",)

    def test_parameterised_clifford_gate(self):
        sequence = clifford_sequence_for(Instruction("u2", (0,), params=(0.0, math.pi)))
        assert sequence is not None

    def test_non_clifford_returns_none(self):
        assert clifford_sequence_for(Instruction("t", (0,))) is None
        assert clifford_sequence_for(Instruction("rz", (0,), params=(0.3,))) is None

    def test_measure_and_barrier_pass_through(self):
        assert clifford_sequence_for(Instruction("measure", (0,), clbits=(0,))) == ("measure",)
        assert clifford_sequence_for(Instruction("barrier", (0, 1))) == ("barrier",)

    def test_non_native_two_qubit_gate_returns_none(self):
        assert clifford_sequence_for(Instruction("cu1", (0, 1), params=(math.pi,))) is None
