"""Tests for the test suite's linear-algebra helpers."""

import numpy as np
import pytest

from repro.circuits.gates import gate_matrix
from linalg_helpers import (
    allclose_up_to_global_phase,
    basis_state,
    expand_operator,
    is_unitary,
    kron_all,
    normalize_state,
)


class TestUnitarity:
    def test_named_gates_are_unitary(self):
        for name in ("x", "h", "s", "t", "cx", "swap", "ccx"):
            assert is_unitary(gate_matrix(name))

    def test_non_square_is_not_unitary(self):
        assert not is_unitary(np.ones((2, 3)))

    def test_non_unitary_matrix(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


class TestGlobalPhase:
    def test_phase_equivalence(self):
        h = gate_matrix("h")
        assert allclose_up_to_global_phase(h, np.exp(1j * 0.7) * h)

    def test_different_operators_not_equivalent(self):
        assert not allclose_up_to_global_phase(gate_matrix("h"), gate_matrix("x"))

    def test_zero_vectors_are_equivalent(self):
        assert allclose_up_to_global_phase(np.zeros(4), np.zeros(4))

    def test_shape_mismatch(self):
        assert not allclose_up_to_global_phase(np.zeros(4), np.zeros(8))


class TestExpandOperator:
    def test_expand_x_on_qubit_zero(self):
        full = expand_operator(gate_matrix("x"), [0], 2)
        state = basis_state(0, 2)
        assert np.allclose(full @ state, basis_state(1, 2))

    def test_expand_x_on_qubit_one(self):
        full = expand_operator(gate_matrix("x"), [1], 2)
        assert np.allclose(full @ basis_state(0, 2), basis_state(2, 2))

    def test_expand_cx_control_order(self):
        # cx(control=0, target=1): |01> (control set) -> |11>.
        full = expand_operator(gate_matrix("cx"), [0, 1], 2)
        assert np.allclose(full @ basis_state(1, 2), basis_state(3, 2))
        # control clear leaves the state alone.
        assert np.allclose(full @ basis_state(2, 2), basis_state(2, 2))

    def test_expand_preserves_unitarity(self):
        full = expand_operator(gate_matrix("ccx"), [2, 0, 1], 3)
        assert is_unitary(full)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            expand_operator(gate_matrix("x"), [0, 1], 2)


class TestVectorHelpers:
    def test_kron_all_dimensions(self):
        result = kron_all([np.eye(2), np.eye(2), np.eye(2)])
        assert result.shape == (8, 8)

    def test_normalize_state(self):
        state = normalize_state(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_normalize_zero_vector_is_noop(self):
        assert np.allclose(normalize_state(np.zeros(4)), np.zeros(4))

    def test_basis_state_bounds(self):
        with pytest.raises(ValueError):
            basis_state(4, 2)
