"""Equivalence tests: the shot-batched Clifford sampler vs the per-shot reference.

The sampler must be statistically indistinguishable from per-shot replay
(same outcome distribution, different RNG consumption order), and
bit-for-bit identical on measurement-deterministic circuits.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, bernstein_vazirani, ghz
from repro.circuits.random_circuits import random_clifford_circuit
from repro.simulators import (
    BatchedStabilizerState,
    StabilizerSimulator,
    StabilizerState,
    hellinger_fidelity,
    probe_deterministic_outcome,
    reference_stabilizer_counts,
)
from repro.simulators.noise import NoiseModel
from repro.simulators.stabilizer import compile_tableau_program
from repro.utils.exceptions import StabilizerError
from repro.utils.rng import ensure_generator


class TestBatchedStabilizerState:
    def test_initial_state_measures_all_zero(self):
        state = BatchedStabilizerState(3, shots=16)
        rng = ensure_generator(0)
        for qubit in range(3):
            assert not state.measure(qubit, rng).any()

    def test_random_measurement_collapses_consistently_per_shot(self):
        rng = ensure_generator(3)
        state = BatchedStabilizerState(1, shots=64)
        state.apply_gate("h", (0,))
        first = state.measure(0, rng)
        assert 0 < first.sum() < 64  # both outcomes occur across shots
        for _ in range(4):
            assert np.array_equal(state.measure(0, rng), first)

    def test_bell_state_correlations_hold_in_every_shot(self):
        rng = ensure_generator(7)
        state = BatchedStabilizerState(2, shots=128)
        state.apply_gate("h", (0,))
        state.apply_gate("cx", (0, 1))
        a = state.measure(0, rng)
        b = state.measure(1, rng)
        assert np.array_equal(a, b)

    def test_reset_returns_every_shot_to_zero(self):
        rng = ensure_generator(5)
        state = BatchedStabilizerState(2, shots=32)
        state.apply_gate("h", (0,))
        state.apply_gate("cx", (0, 1))
        state.reset(0, rng)
        assert not state.measure(0, rng).any()

    def test_stabilizer_strings_match_scalar_for_gate_only_evolution(self):
        batched = BatchedStabilizerState(3, shots=4)
        scalar = StabilizerState(3)
        for apply_to in (batched, scalar):
            apply_to.apply_gate("h", (0,))
            apply_to.apply_gate("cx", (0, 1))
            apply_to.apply_gate("s", (1,))
            apply_to.apply_gate("cx", (1, 2))
        for shot in range(4):
            assert batched.stabilizer_strings(shot) == scalar.stabilizer_strings()

    def test_pauli_errors_only_touch_signs(self):
        state = BatchedStabilizerState(2, shots=8)
        x_before = state._x.copy()
        z_before = state._z.copy()
        state.apply_pauli("x", 0, shot_indices=np.array([1, 3]))
        state.apply_pauli("y", 1)
        assert np.array_equal(state._x, x_before)
        assert np.array_equal(state._z, z_before)

    def test_invalid_construction_rejected(self):
        with pytest.raises(StabilizerError):
            BatchedStabilizerState(0, shots=4)
        with pytest.raises(StabilizerError):
            BatchedStabilizerState(2, shots=0)


class TestApplyPauliShotSelectors:
    """Regression: boolean masks select shots, they are not index arrays."""

    @staticmethod
    def _plus_state(shots):
        state = BatchedStabilizerState(1, shots=shots)
        state.apply_gate("h", (0,))
        return state

    def test_boolean_mask_matches_equivalent_index_array(self):
        mask = np.zeros(16, dtype=bool)
        mask[[2, 3, 11]] = True
        by_mask = BatchedStabilizerState(2, shots=16)
        by_index = BatchedStabilizerState(2, shots=16)
        by_mask.apply_pauli("z", 0, shot_indices=mask)
        by_index.apply_pauli("z", 0, shot_indices=np.nonzero(mask)[0])
        assert np.array_equal(by_mask._r, by_index._r)

    def test_boolean_mask_flips_only_selected_shots(self):
        # A Z error on |+> flips the measured X-basis outcome, so the flip
        # pattern is directly observable: prepare |0>, X-error a subset, and
        # the error shows up exactly on the masked shots.
        state = BatchedStabilizerState(1, shots=8)
        mask = np.array([True, False, True, False, False, True, False, False])
        state.apply_pauli("x", 0, shot_indices=mask)
        outcome = state.measure(0, ensure_generator(0))
        assert np.array_equal(outcome.astype(bool), mask)

    def test_wrong_shape_boolean_mask_rejected(self):
        state = BatchedStabilizerState(1, shots=8)
        with pytest.raises(StabilizerError):
            state.apply_pauli("x", 0, shot_indices=np.ones(4, dtype=bool))

    def test_none_selector_hits_every_shot(self):
        state = BatchedStabilizerState(1, shots=8)
        state.apply_pauli("x", 0, shot_indices=None)
        assert state.measure(0, ensure_generator(0)).all()


class TestDeterministicFastPath:
    def test_probe_solves_bv_without_batching(self):
        circuit = bernstein_vazirani("1101")
        program = compile_tableau_program(circuit)
        width = max(circuit.num_clbits, 1)
        assert probe_deterministic_outcome(program, circuit.num_qubits, width) == "1101"

    def test_probe_bails_on_random_outcomes(self):
        circuit = ghz(3)
        program = compile_tableau_program(circuit)
        assert probe_deterministic_outcome(program, 3, 3) is None

    def test_deterministic_circuit_reports_fast_path_metadata(self):
        result = StabilizerSimulator(seed=1).run(bernstein_vazirani("1011"), shots=777)
        assert result.metadata["method"] == "deterministic"
        assert result.counts == {"1011": 777}

    def test_random_circuit_reports_batched_metadata(self):
        result = StabilizerSimulator(seed=1).run(ghz(3), shots=64)
        assert result.metadata["method"] == "batched"
        assert sum(result.counts.values()) == 64


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clifford_distributions_match(self, seed):
        """Property-style check over seeded random Clifford circuits."""
        circuit = random_clifford_circuit(5, 7, seed=seed, measure=True)
        shots = 3000
        scalar = reference_stabilizer_counts(circuit, shots, seed=seed + 100)
        batched = StabilizerSimulator(seed=seed + 200).run(circuit, shots=shots)
        assert sum(batched.counts.values()) == shots
        assert set(batched.counts) <= set(scalar) | set(batched.counts)
        assert hellinger_fidelity(scalar, batched.counts) > 0.97

    def test_mid_circuit_measure_and_reset_agree(self):
        shots = 4000
        scalar = reference_stabilizer_counts(_mid_circuit_reset(), shots, seed=9)
        batched = StabilizerSimulator(seed=10).run(_mid_circuit_reset(), shots=shots)
        assert hellinger_fidelity(scalar, batched.counts) > 0.97

    def test_wide_circuit_support_is_identical(self):
        counts = StabilizerSimulator(seed=3).run(ghz(40), shots=64).counts
        assert set(counts) <= {"0" * 40, "1" * 40}

    def test_noisy_batched_matches_scalar_distribution(self):
        circuit = ghz(6)
        noise = NoiseModel(
            default_two_qubit_error=0.05,
            default_one_qubit_error=0.01,
            default_readout_error=0.02,
        )
        shots = 4000
        scalar = reference_stabilizer_counts(circuit, shots, noise, seed=21)
        batched = StabilizerSimulator(seed=22).run(circuit, shots=shots, noise_model=noise)
        assert batched.metadata["method"] == "batched"
        assert batched.metadata["simulator"] == "noisy_stabilizer"
        assert hellinger_fidelity(scalar, batched.counts) > 0.97

    def test_an_ideal_noise_model_skips_the_deterministic_probe(self):
        # execute_with_noise always passes a noise model: its draws come
        # from the batched path even when every rate is zero.
        circuit = bernstein_vazirani("1011")
        result = StabilizerSimulator(seed=1).run(circuit, shots=64, noise_model=NoiseModel.ideal())
        assert result.metadata == {"simulator": "noisy_stabilizer", "ideal": False, "method": "batched"}
        assert result.counts == {"1011": 64}

    def test_shots_must_be_positive(self):
        with pytest.raises(StabilizerError):
            StabilizerSimulator().run(ghz(2), shots=0)

    def test_non_clifford_rejected(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        with pytest.raises(StabilizerError):
            StabilizerSimulator().run(circuit, shots=8)
        with pytest.raises(StabilizerError):
            reference_stabilizer_counts(circuit, 8)

    def test_reference_shots_must_be_positive(self):
        with pytest.raises(StabilizerError):
            reference_stabilizer_counts(ghz(2), 0)


def _mid_circuit_reset() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0).cx(0, 1).measure(0, 0).reset(1).h(1).cx(1, 2).measure(1, 1).measure(2, 2)
    return circuit


_GOLDEN_NOISE = NoiseModel(
    default_two_qubit_error=0.05, default_one_qubit_error=0.01, default_readout_error=0.02
)


class TestReferenceGoldens:
    """The reference loop reproduces the per-shot loops it replaced, shot for shot.

    Captured from the ideal and the noisy ``method="scalar"`` loops before
    they were folded into :func:`reference_stabilizer_counts`; the ideal
    loop's counts equal the noisy loop's under no noise at the same seed.
    The dictionaries are compared in order: first-seen key order is part of
    the contract.
    """

    @pytest.mark.parametrize(
        "noise, expected",
        [
            (None, [("110", 19), ("001", 19), ("111", 18), ("000", 8)]),
            (_GOLDEN_NOISE, [("110", 16), ("001", 16), ("111", 14), ("000", 17), ("010", 1)]),
        ],
    )
    def test_mid_circuit_reset(self, noise, expected):
        counts = reference_stabilizer_counts(_mid_circuit_reset(), 64, noise, seed=9)
        assert list(counts.items()) == expected

    def test_noisy_ghz(self):
        noise = NoiseModel(
            default_two_qubit_error=0.1, default_one_qubit_error=0.05, default_readout_error=0.05
        )
        counts = reference_stabilizer_counts(ghz(3), 64, noise, seed=21)
        assert list(counts.items()) == [
            ("000", 26), ("111", 17), ("001", 6), ("110", 4), ("101", 4), ("010", 4), ("100", 3),
        ]

    def test_ideal_ghz(self):
        counts = reference_stabilizer_counts(ghz(3), 64, seed=21)
        assert list(counts.items()) == [("000", 30), ("111", 34)]
