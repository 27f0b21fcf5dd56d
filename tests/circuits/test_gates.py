"""Tests for gate definitions and matrices."""

import math

import numpy as np
import pytest

from repro.circuits.gates import (
    CLIFFORD_GATE_NAMES,
    GATE_SPECS,
    gate_matrix,
    gate_spec,
    is_directive,
    is_known_gate,
)
from repro.utils.exceptions import GateError
from linalg_helpers import allclose_up_to_global_phase, is_unitary


class TestGateSpecs:
    def test_every_unitary_gate_has_unitary_matrix(self):
        for name, spec in GATE_SPECS.items():
            if spec.directive:
                continue
            params = tuple(0.3 * (i + 1) for i in range(spec.num_params))
            assert is_unitary(spec.matrix(params)), name

    def test_lookup_is_case_insensitive(self):
        assert gate_spec("CX").name == "cx"

    def test_unknown_gate_raises(self):
        with pytest.raises(GateError):
            gate_spec("frobnicate")

    def test_is_known_gate(self):
        assert is_known_gate("h")
        assert not is_known_gate("nope")

    def test_directive_flags(self):
        assert is_directive("measure")
        assert is_directive("barrier")
        assert not is_directive("cx")

    def test_directive_has_no_matrix(self):
        with pytest.raises(GateError):
            gate_spec("measure").matrix()

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(GateError):
            gate_matrix("u3", (0.1,))


class TestSpecificMatrices:
    def test_u3_reduces_to_named_gates(self):
        assert allclose_up_to_global_phase(gate_matrix("u3", (math.pi, 0, math.pi)), gate_matrix("x"))
        assert allclose_up_to_global_phase(gate_matrix("u2", (0, math.pi)), gate_matrix("h"))
        assert allclose_up_to_global_phase(gate_matrix("u1", (math.pi / 2,)), gate_matrix("s"))

    def test_rz_and_u1_agree_up_to_phase(self):
        assert allclose_up_to_global_phase(gate_matrix("rz", (0.7,)), gate_matrix("u1", (0.7,)))

    def test_cx_flips_target_when_control_set(self):
        cx = gate_matrix("cx")
        # Local basis index = control + 2*target: |c=1,t=0> -> |c=1,t=1>.
        assert cx[3, 1] == 1.0
        assert cx[1, 3] == 1.0

    def test_cz_is_diagonal_with_single_minus_one(self):
        cz = gate_matrix("cz")
        assert np.allclose(np.diag(np.diag(cz)), cz)
        assert np.isclose(cz[3, 3], -1.0)

    def test_swap_exchanges_single_excitations(self):
        swap = gate_matrix("swap")
        assert swap[2, 1] == 1.0 and swap[1, 2] == 1.0

    def test_ccx_only_flips_on_both_controls(self):
        ccx = gate_matrix("ccx")
        assert ccx[7, 3] == 1.0 and ccx[3, 7] == 1.0
        assert ccx[1, 1] == 1.0

    def test_ch_matches_controlled_hadamard_block(self):
        ch = gate_matrix("ch")
        h = gate_matrix("h")
        assert np.isclose(ch[1, 1], h[0, 0])
        assert np.isclose(ch[3, 3], h[1, 1])

    def test_sdg_is_inverse_of_s(self):
        assert np.allclose(gate_matrix("s") @ gate_matrix("sdg"), np.eye(2))

    def test_t_squared_is_s(self):
        assert allclose_up_to_global_phase(gate_matrix("t") @ gate_matrix("t"), gate_matrix("s"))

    def test_sx_squared_is_x(self):
        assert allclose_up_to_global_phase(gate_matrix("sx") @ gate_matrix("sx"), gate_matrix("x"))


class TestCliffordClassification:
    def test_core_cliffords_are_flagged(self):
        for name in ("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"):
            assert name in CLIFFORD_GATE_NAMES

    def test_non_cliffords_are_not_flagged(self):
        for name in ("t", "tdg", "ccx", "ccz", "ch"):
            assert name not in CLIFFORD_GATE_NAMES
