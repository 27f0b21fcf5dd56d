"""The Clifford sampler: all shots of a tableau program as one array program.

The per-shot reference,
:func:`~repro.simulators.stabilizer.reference_stabilizer_counts`, replays the
compiled tableau program once per shot — 1024 independent pure-Python
trajectories for a single canary execution.  This module removes the per-shot
loop by exploiting a structural property of the Aaronson-Gottesman tableau:

* Clifford gates update the X/Z bit matrices and flip generator signs by a
  mask that depends only on the X/Z bits;
* a measurement's branch (random vs deterministic) and its collapse rows are
  chosen by the X/Z bits alone — only the recorded outcome and the sign
  column depend on randomness;
* Pauli errors (the noise model's only gate-error channel) flip signs and
  never touch the X/Z bits.

Hence every trajectory of the same compiled program shares one X/Z bit
structure, and the shots differ *only in their sign vectors*.
:class:`BatchedStabilizerState` therefore stores a single ``(2n, n)``
structural tableau plus a ``(shots, 2n)`` sign matrix and evolves all shots
with NumPy boolean algebra: gates cost one vectorised sign update, random
measurements draw all shot outcomes at once, and per-shot Pauli noise becomes
a table lookup of sign-flip masks.

:class:`StabilizerSimulator` runs one of two paths:

* ``deterministic`` — without a noise model, a one-trajectory probe first
  checks whether every measurement (and reset) is deterministic; if so the
  tableau is evolved exactly once and the counts dictionary is written in
  O(1) in the shot count;
* ``batched`` — the general path described above, used whenever a random
  measurement outcome or a noise model makes shots differ.

``tests/simulators/test_batched_stabilizer.py`` asserts that the sampler and
the per-shot reference agree on random Clifford circuits.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noise import _PAULI_LABELS, _TWO_QUBIT_PAULIS, NoiseModel
from repro.simulators.result import SimulationResult
from repro.simulators.stabilizer import (
    _CLIFFORD_DECOMPOSITIONS,
    StabilizerState,
    TableauStep,
    compile_tableau_program,
)
from repro.utils.exceptions import StabilizerError
from repro.utils.rng import SeedLike, ensure_generator


def _phase_exponents(
    x_source: np.ndarray,
    z_source: np.ndarray,
    x_targets: np.ndarray,
    z_targets: np.ndarray,
) -> np.ndarray:
    """Aaronson-Gottesman ``g``-sums of one source row against many targets.

    ``x_source``/``z_source`` have shape ``(n,)``, the targets ``(k, n)``;
    returns the per-target exponent sums modulo 4.  For valid stabilizer
    products the sums are always even, which is what lets the per-shot sign
    update reduce to an XOR.
    """
    x1 = x_source.astype(np.int64)
    z1 = z_source.astype(np.int64)
    x2 = x_targets.astype(np.int64)
    z2 = z_targets.astype(np.int64)
    g = np.zeros_like(x2)
    case_xz = ((x1 == 1) & (z1 == 1))[None, :]
    g = np.where(case_xz, z2 - x2, g)
    case_x = ((x1 == 1) & (z1 == 0))[None, :]
    g = np.where(case_x, z2 * (2 * x2 - 1), g)
    case_z = ((x1 == 0) & (z1 == 1))[None, :]
    g = np.where(case_z, x2 * (1 - 2 * z2), g)
    return g.sum(axis=1) % 4


class BatchedStabilizerState:
    """All shots of one stabilizer trajectory as a stacked-sign tableau.

    The X/Z generator bits are shared across shots (shape ``(2n, n)``), the
    signs are per shot (shape ``(shots, 2n)``).  Every public operation
    mirrors :class:`~repro.simulators.stabilizer.StabilizerState`, with
    measurements returning one outcome per shot.
    """

    def __init__(self, num_qubits: int, shots: int) -> None:
        if num_qubits <= 0:
            raise StabilizerError("A stabilizer state needs at least one qubit")
        if shots <= 0:
            raise StabilizerError("shots must be positive")
        self.num_qubits = num_qubits
        self.shots = shots
        n = num_qubits
        self._x = np.zeros((2 * n, n), dtype=np.uint8)
        self._z = np.zeros((2 * n, n), dtype=np.uint8)
        self._r = np.zeros((shots, 2 * n), dtype=np.uint8)
        for i in range(n):
            self._x[i, i] = 1
            self._z[n + i, i] = 1

    # ------------------------------------------------------------------ #
    # Primitive Clifford updates (signs vectorised over shots)
    # ------------------------------------------------------------------ #
    def apply_h(self, qubit: int) -> None:
        """Apply a Hadamard to ``qubit`` of every shot."""
        x_col = self._x[:, qubit].copy()
        z_col = self._z[:, qubit].copy()
        self._r ^= (x_col & z_col)[None, :]
        self._x[:, qubit] = z_col
        self._z[:, qubit] = x_col

    def apply_s(self, qubit: int) -> None:
        """Apply the phase gate S to ``qubit`` of every shot."""
        x_col = self._x[:, qubit]
        z_col = self._z[:, qubit]
        self._r ^= (x_col & z_col)[None, :]
        self._z[:, qubit] = z_col ^ x_col

    def apply_cx(self, control: int, target: int) -> None:
        """Apply a CNOT from ``control`` to ``target`` of every shot."""
        x_c = self._x[:, control]
        z_c = self._z[:, control]
        x_t = self._x[:, target]
        z_t = self._z[:, target]
        self._r ^= (x_c & z_t & (x_t ^ z_c ^ 1))[None, :]
        self._x[:, target] = x_t ^ x_c
        self._z[:, control] = z_c ^ z_t

    def apply_gate(self, name: str, qubits: Sequence[int]) -> None:
        """Apply a named Clifford gate to ``qubits`` of every shot."""
        if name not in _CLIFFORD_DECOMPOSITIONS:
            raise StabilizerError(f"Gate '{name}' is not a Clifford tableau gate")
        for primitive, operand_indices in _CLIFFORD_DECOMPOSITIONS[name]:
            operands = [qubits[i] for i in operand_indices]
            if primitive == "h":
                self.apply_h(operands[0])
            elif primitive == "s":
                self.apply_s(operands[0])
            else:
                self.apply_cx(operands[0], operands[1])

    # ------------------------------------------------------------------ #
    def pauli_flip_mask(self, pauli: str, qubit: int) -> np.ndarray:
        """Sign-flip mask (shape ``(2n,)``) of a Pauli error on ``qubit``.

        Pauli errors never touch the X/Z bits, so injecting one into a subset
        of shots is a masked XOR of this vector into their sign rows — the
        property that keeps noisy batches on the shared-structure fast path.
        """
        if pauli == "x":
            return self._z[:, qubit]
        if pauli == "z":
            return self._x[:, qubit]
        if pauli == "y":
            return self._z[:, qubit] ^ self._x[:, qubit]
        raise StabilizerError(f"Unknown Pauli '{pauli}'")

    def apply_pauli(self, pauli: str, qubit: int, shot_indices: Optional[np.ndarray] = None) -> None:
        """Apply a Pauli error to ``qubit`` of the selected shots (all by default).

        ``shot_indices`` selects which shots receive the error: ``None`` (all
        shots), an integer index array, or a boolean mask of shape
        ``(shots,)``.
        """
        mask = self.pauli_flip_mask(pauli, qubit)
        if shot_indices is None:
            self._r ^= mask[None, :]
            return
        selector = np.asarray(shot_indices)
        if selector.dtype == np.bool_:
            if selector.shape != (self.shots,):
                raise StabilizerError(
                    f"Boolean shot mask must have shape ({self.shots},), got {selector.shape}"
                )
            self._r ^= selector.astype(np.uint8)[:, None] & mask[None, :]
        else:
            self._r[selector] ^= mask[None, :]

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int, rng: np.random.Generator) -> np.ndarray:
        """Measure ``qubit`` on every shot; returns one outcome bit per shot."""
        n = self.num_qubits
        stabilizer_rows = np.nonzero(self._x[n:, qubit])[0]
        if stabilizer_rows.size > 0:
            # Random outcome: same collapse structure for every shot, fresh
            # random bits per shot.
            p = int(stabilizer_rows[0]) + n
            rows_to_fix = np.array(
                [row for row in range(2 * n) if row != p and self._x[row, qubit]],
                dtype=np.intp,
            )
            if rows_to_fix.size:
                exponents = _phase_exponents(
                    self._x[p], self._z[p], self._x[rows_to_fix], self._z[rows_to_fix]
                )
                phase_bits = (exponents == 2).astype(np.uint8)
                self._r[:, rows_to_fix] ^= self._r[:, p : p + 1] ^ phase_bits[None, :]
                self._x[rows_to_fix] ^= self._x[p][None, :]
                self._z[rows_to_fix] ^= self._z[p][None, :]
            self._x[p - n] = self._x[p]
            self._z[p - n] = self._z[p]
            self._r[:, p - n] = self._r[:, p]
            self._x[p] = 0
            self._z[p] = 0
            self._z[p, qubit] = 1
            outcomes = rng.integers(0, 2, size=self.shots, dtype=np.uint8)
            self._r[:, p] = outcomes
            return outcomes
        # Deterministic outcome: the product structure (and hence the phase
        # contribution of the g-function chain) is shared; only the generator
        # signs differ per shot, entering the outcome as an XOR.
        involved = np.nonzero(self._x[:n, qubit])[0]
        if involved.size == 0:
            return np.zeros(self.shots, dtype=np.uint8)
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        phase_bit = 0
        for row in involved:
            exponent = _phase_exponents(
                self._x[n + row], self._z[n + row], scratch_x[None, :], scratch_z[None, :]
            )[0]
            phase_bit ^= int(exponent == 2)
            scratch_x ^= self._x[n + row]
            scratch_z ^= self._z[n + row]
        sign_parity = self._r[:, n + involved].sum(axis=1, dtype=np.int64) & 1
        return (sign_parity ^ phase_bit).astype(np.uint8)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset ``qubit`` to ``|0>`` on every shot (measure, flip the 1s)."""
        outcomes = self.measure(qubit, rng)
        flipped = np.nonzero(outcomes)[0]
        if flipped.size:
            self.apply_pauli("x", qubit, shot_indices=flipped)

    # ------------------------------------------------------------------ #
    def stabilizer_strings(self, shot: int = 0) -> List[str]:
        """Signed Pauli strings of one shot's stabilizer generators (for tests)."""
        n = self.num_qubits
        strings = []
        for row in range(n, 2 * n):
            sign = "-" if self._r[shot, row] else "+"
            paulis = []
            for qubit in range(n):
                x_bit = self._x[row, qubit]
                z_bit = self._z[row, qubit]
                if x_bit and z_bit:
                    paulis.append("Y")
                elif x_bit:
                    paulis.append("X")
                elif z_bit:
                    paulis.append("Z")
                else:
                    paulis.append("I")
            strings.append(sign + "".join(paulis))
        return strings


# --------------------------------------------------------------------------- #
# Deterministic fast path
# --------------------------------------------------------------------------- #
def probe_deterministic_outcome(
    program: Sequence[TableauStep],
    num_qubits: int,
    width: int,
) -> Optional[str]:
    """Single-trajectory probe for measurement-deterministic programs.

    Runs the compiled program once on the scalar tableau; every measurement
    (and reset) must be deterministic for the probe to succeed, in which case
    all shots share the returned bit-string and the simulator can skip shot
    batching entirely.  Returns ``None`` as soon as a random outcome is
    possible.  Only valid for noise-free execution.
    """
    state = StabilizerState(num_qubits)
    clbits = ["0"] * width
    for step in program:
        if step.kind == "measure":
            value = state.expectation_z(step.qubits[0])
            if value is None:
                return None
            clbits[width - 1 - step.clbit] = str(value)
        elif step.kind == "reset":
            value = state.expectation_z(step.qubits[0])
            if value is None:
                return None
            if value:
                state.apply_gate("x", (step.qubits[0],))
        else:
            for name in step.primitives:
                state.apply_gate(name, step.qubits)
    return "".join(clbits)


# --------------------------------------------------------------------------- #
# Simulator front end
# --------------------------------------------------------------------------- #
class StabilizerSimulator:
    """Shot-batched sampler for Clifford circuits, with optional Pauli noise.

    Statistically equivalent to
    :func:`~repro.simulators.stabilizer.reference_stabilizer_counts`: the
    same Pauli-error channel and readout flips are sampled, just for all
    shots at once.  The RNG consumption order differs from the per-shot
    reference, so seeded runs agree in distribution rather than shot for
    shot.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        noise_model: Optional[NoiseModel] = None,
        program: Optional[Sequence[TableauStep]] = None,
    ) -> SimulationResult:
        """Execute ``circuit`` for ``shots`` trajectories as one array program.

        Without ``noise_model`` the run is ideal and tries the deterministic
        probe first; with one (even :meth:`NoiseModel.ideal`) every shot is
        sampled on the batched path.  ``program`` may carry the circuit's
        precompiled tableau program (from
        :func:`~repro.simulators.stabilizer.compile_tableau_program`), in
        which case the per-gate circuit walk is skipped entirely — the
        compile-once/execute-many path used by execution plans.  The caller
        is responsible for the program actually matching the circuit.
        """
        if shots <= 0:
            raise StabilizerError("shots must be positive")
        if program is None:
            program = compile_tableau_program(circuit)
        width = max(circuit.num_clbits, 1)
        ideal = noise_model is None
        if ideal:
            deterministic = probe_deterministic_outcome(program, circuit.num_qubits, width)
            if deterministic is not None:
                return SimulationResult(
                    counts={deterministic: shots},
                    shots=shots,
                    metadata={"simulator": "stabilizer", "ideal": True, "method": "deterministic"},
                )
        counts = self._run_batched(program, circuit.num_qubits, width, shots, noise_model)
        return SimulationResult(
            counts=counts,
            shots=shots,
            metadata={
                "simulator": "stabilizer" if ideal else "noisy_stabilizer",
                "ideal": ideal,
                "method": "batched",
            },
        )

    # ------------------------------------------------------------------ #
    def _run_batched(
        self,
        program: Sequence[TableauStep],
        num_qubits: int,
        width: int,
        shots: int,
        noise_model: Optional[NoiseModel],
    ) -> Dict[str, int]:
        state = BatchedStabilizerState(num_qubits, shots)
        bits = np.zeros((shots, width), dtype=np.uint8)
        # Classical-bit string positions, resolved once per program (bit 0 is
        # the right-most character, as everywhere in the library).
        positions = {
            index: width - 1 - step.clbit
            for index, step in enumerate(program)
            if step.kind == "measure"
        }
        for index, step in enumerate(program):
            if step.kind == "measure":
                outcomes = state.measure(step.qubits[0], self._rng)
                if noise_model is not None:
                    flip_probability = noise_model.measurement_error(step.qubits[0])
                    if flip_probability > 0.0:
                        flips = self._rng.random(shots) < flip_probability
                        outcomes = outcomes ^ flips.astype(np.uint8)
                bits[:, positions[index]] = outcomes
                continue
            if step.kind == "reset":
                state.reset(step.qubits[0], self._rng)
                continue
            for name in step.primitives:
                state.apply_gate(name, step.qubits)
            if noise_model is not None:
                error_rate = noise_model.gate_error(step.qubits)
                if error_rate > 0.0:
                    self._inject_pauli_errors(state, step.qubits, error_rate)
        return _counts_from_bits(bits)

    def _inject_pauli_errors(
        self,
        state: BatchedStabilizerState,
        qubits: Sequence[int],
        error_rate: float,
    ) -> None:
        """Flip the signs of the errored shots via a Pauli-mask table lookup."""
        shots = state.shots
        error_mask = self._rng.random(shots) < error_rate
        if not error_mask.any():
            return
        if len(qubits) == 1:
            table = np.stack([state.pauli_flip_mask(label, qubits[0]) for label in _PAULI_LABELS])
            choices = self._rng.integers(0, len(_PAULI_LABELS), size=shots)
        else:
            rows = []
            for pauli_a, pauli_b in _TWO_QUBIT_PAULIS:
                row = np.zeros(2 * state.num_qubits, dtype=np.uint8)
                if pauli_a is not None:
                    row ^= state.pauli_flip_mask(pauli_a, qubits[0])
                if pauli_b is not None:
                    row ^= state.pauli_flip_mask(pauli_b, qubits[1])
                rows.append(row)
            table = np.stack(rows)
            choices = self._rng.integers(0, len(_TWO_QUBIT_PAULIS), size=shots)
        flips = np.where(error_mask[:, None], table[choices], 0).astype(np.uint8)
        state._r ^= flips


def _counts_from_bits(bits: np.ndarray) -> Dict[str, int]:
    """Aggregate a ``(shots, width)`` outcome matrix into a counts dictionary."""
    unique_rows, row_counts = np.unique(bits, axis=0, return_counts=True)
    counter: Counter = Counter()
    for row, count in zip(unique_rows, row_counts):
        key = "".join("1" if bit else "0" for bit in row)
        counter[key] = int(count)
    return dict(counter)
