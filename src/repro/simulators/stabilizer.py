"""Stabilizer (Clifford) simulation via the Aaronson-Gottesman CHP tableau.

The Gottesman-Knill theorem — cited directly by the paper — states that
circuits composed solely of Clifford operations can be simulated in
polynomial time.  QRIO's fidelity ranking exploits this by scoring devices
with *Clifford canary* versions of the user's circuit; this module provides
the tableau, the compiler from circuits to tableau programs and
:func:`reference_stabilizer_counts`, the per-shot reference sampler.  The
sampler the library runs, which makes the canary's ideal reference
distribution computable even for the fleet's 100-qubit devices, is the
shot-batched :class:`~repro.simulators.batched_stabilizer.StabilizerSimulator`.

The tableau follows Aaronson & Gottesman, "Improved simulation of stabilizer
circuits" (2004): ``2n`` generator rows (destabilizers then stabilizers),
each a Pauli string stored as X/Z bit vectors plus a sign bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_utils import clifford_sequence_for
from repro.circuits.instruction import Instruction
from repro.simulators.noise import _PAULI_LABELS, _TWO_QUBIT_PAULIS, NoiseModel
from repro.utils.exceptions import StabilizerError
from repro.utils.rng import SeedLike, ensure_generator

#: Decomposition of every supported Clifford gate into the tableau primitives
#: ``h``, ``s`` and ``cx``.  Operand placeholders are indices into the
#: instruction's qubit tuple.
_CLIFFORD_DECOMPOSITIONS: Dict[str, Tuple[Tuple[str, Tuple[int, ...]], ...]] = {
    "id": (),
    "h": (("h", (0,)),),
    "s": (("s", (0,)),),
    "sdg": (("s", (0,)), ("s", (0,)), ("s", (0,))),
    "x": (("h", (0,)), ("s", (0,)), ("s", (0,)), ("h", (0,))),
    "z": (("s", (0,)), ("s", (0,))),
    "y": (
        ("s", (0,)),
        ("s", (0,)),
        ("h", (0,)),
        ("s", (0,)),
        ("s", (0,)),
        ("h", (0,)),
    ),
    "sx": (("h", (0,)), ("s", (0,)), ("h", (0,))),
    "cx": (("cx", (0, 1)),),
    "cz": (("h", (1,)), ("cx", (0, 1)), ("h", (1,))),
    "cy": (
        ("s", (1,)),
        ("s", (1,)),
        ("s", (1,)),
        ("cx", (0, 1)),
        ("s", (1,)),
    ),
    "swap": (("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1))),
}


def is_stabilizer_gate(name: str) -> bool:
    """Return ``True`` when ``name`` can be executed on the tableau by name alone.

    Parameterised gates (``u1``, ``u2``, ``u3``, ``rz``, ...) may still be
    executable when their specific parameters make them Clifford; use
    :func:`stabilizer_sequence` / :func:`circuit_is_stabilizer_compatible` for
    the instruction-level check.
    """
    return name in _CLIFFORD_DECOMPOSITIONS or name in ("measure", "reset", "barrier")


def stabilizer_sequence(instruction: Instruction) -> Optional[Tuple[str, ...]]:
    """Native gate sequence implementing ``instruction`` on the tableau.

    Returns ``None`` when the instruction is not a Clifford operation (or is
    a multi-qubit gate outside the native set).
    """
    if instruction.name in _CLIFFORD_DECOMPOSITIONS and not instruction.params:
        return (instruction.name,)
    return clifford_sequence_for(instruction)


@dataclass(frozen=True)
class TableauStep:
    """One step of a pre-compiled tableau program.

    ``kind`` is ``"gate"``, ``"measure"`` or ``"reset"``.  For gates,
    ``primitives`` holds the already-resolved sequence of native tableau gate
    names (so the per-shot loop never has to re-derive Clifford sequences),
    and ``qubits`` the operands of the *original* instruction — which is what
    noise models charge errors against.
    """

    kind: str
    qubits: Tuple[int, ...]
    primitives: Tuple[str, ...] = ()
    clbit: Optional[int] = None


def compile_tableau_program(circuit: QuantumCircuit) -> List[TableauStep]:
    """Pre-compile ``circuit`` into primitive tableau steps.

    Raises :class:`StabilizerError` when the circuit contains a non-Clifford
    gate.  The samplers run this once per circuit and then replay the
    compiled program for every shot.
    """
    program: List[TableauStep] = []
    for instruction in circuit:
        if instruction.name == "barrier":
            continue
        if instruction.name == "measure":
            program.append(
                TableauStep(kind="measure", qubits=instruction.qubits, clbit=instruction.clbits[0])
            )
            continue
        if instruction.name == "reset":
            program.append(TableauStep(kind="reset", qubits=instruction.qubits))
            continue
        sequence = stabilizer_sequence(instruction)
        if sequence is None:
            raise StabilizerError(
                f"Gate '{instruction.name}{tuple(instruction.params)}' is not a Clifford operation"
            )
        primitives = tuple(name for name in sequence if name != "id")
        program.append(TableauStep(kind="gate", qubits=instruction.qubits, primitives=primitives))
    return program


def circuit_is_stabilizer_compatible(circuit: QuantumCircuit) -> bool:
    """``True`` when every instruction of ``circuit`` can run on the tableau."""
    for instruction in circuit:
        if instruction.name in ("measure", "reset", "barrier"):
            continue
        if stabilizer_sequence(instruction) is None:
            return False
    return True


class StabilizerState:
    """A stabilizer state over ``num_qubits`` qubits (CHP tableau)."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise StabilizerError("A stabilizer state needs at least one qubit")
        self.num_qubits = num_qubits
        n = num_qubits
        # Rows 0..n-1: destabilizers (initially X_i); rows n..2n-1: stabilizers
        # (initially Z_i).
        self._x = np.zeros((2 * n, n), dtype=np.uint8)
        self._z = np.zeros((2 * n, n), dtype=np.uint8)
        self._r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self._x[i, i] = 1
            self._z[n + i, i] = 1

    # ------------------------------------------------------------------ #
    # Primitive Clifford updates (Aaronson-Gottesman rules)
    # ------------------------------------------------------------------ #
    def apply_h(self, qubit: int) -> None:
        """Apply a Hadamard to ``qubit``."""
        x_col = self._x[:, qubit].copy()
        z_col = self._z[:, qubit].copy()
        self._r ^= x_col & z_col
        self._x[:, qubit] = z_col
        self._z[:, qubit] = x_col

    def apply_s(self, qubit: int) -> None:
        """Apply the phase gate S to ``qubit``."""
        x_col = self._x[:, qubit]
        z_col = self._z[:, qubit]
        self._r ^= x_col & z_col
        self._z[:, qubit] = z_col ^ x_col

    def apply_cx(self, control: int, target: int) -> None:
        """Apply a CNOT from ``control`` to ``target``."""
        x_c = self._x[:, control]
        z_c = self._z[:, control]
        x_t = self._x[:, target]
        z_t = self._z[:, target]
        self._r ^= x_c & z_t & (x_t ^ z_c ^ 1)
        self._x[:, target] = x_t ^ x_c
        self._z[:, control] = z_c ^ z_t

    # ------------------------------------------------------------------ #
    def apply_pauli(self, pauli: str, qubit: int) -> None:
        """Apply a Pauli error (``"x"``, ``"y"`` or ``"z"``) to ``qubit``.

        Pauli operators only toggle generator signs; this is the hook
        :func:`reference_stabilizer_counts` uses to inject sampled gate errors.
        """
        if pauli == "x":
            self._r ^= self._z[:, qubit]
        elif pauli == "z":
            self._r ^= self._x[:, qubit]
        elif pauli == "y":
            self._r ^= self._z[:, qubit] ^ self._x[:, qubit]
        else:
            raise StabilizerError(f"Unknown Pauli '{pauli}'")

    def apply_gate(self, name: str, qubits: Sequence[int]) -> None:
        """Apply a named Clifford gate to ``qubits``."""
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
    # Measurement
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure ``qubit`` in the computational basis, collapsing the state."""
        n = self.num_qubits
        stabilizer_rows = np.nonzero(self._x[n:, qubit])[0]
        if stabilizer_rows.size > 0:
            # Random outcome: the measurement anti-commutes with a stabilizer.
            p = int(stabilizer_rows[0]) + n
            rows_to_fix = [
                row
                for row in range(2 * n)
                if row != p and self._x[row, qubit]
            ]
            for row in rows_to_fix:
                self._row_multiply(row, p)
            self._x[p - n] = self._x[p]
            self._z[p - n] = self._z[p]
            self._r[p - n] = self._r[p]
            self._x[p] = 0
            self._z[p] = 0
            self._z[p, qubit] = 1
            outcome = int(rng.integers(0, 2))
            self._r[p] = outcome
            return outcome
        # Deterministic outcome: accumulate the product of the stabilizers
        # whose destabilizer partners anti-commute with Z_qubit.
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        scratch_r = 0
        for row in range(n):
            if self._x[row, qubit]:
                scratch_x, scratch_z, scratch_r = self._product(
                    scratch_x, scratch_z, scratch_r, row + n
                )
        return int(scratch_r)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset ``qubit`` to ``|0>`` (measure, then flip when the outcome is 1)."""
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            self.apply_gate("x", (qubit,))

    def expectation_z(self, qubit: int) -> Optional[int]:
        """Return the deterministic Z outcome of ``qubit`` or ``None`` if random."""
        n = self.num_qubits
        if np.any(self._x[n:, qubit]):
            return None
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        scratch_r = 0
        for row in range(n):
            if self._x[row, qubit]:
                scratch_x, scratch_z, scratch_r = self._product(
                    scratch_x, scratch_z, scratch_r, row + n
                )
        return int(scratch_r)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _phase_exponent(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> int:
        """Sum of the Aaronson-Gottesman ``g`` function over all columns (mod 4)."""
        x1 = x1.astype(np.int64)
        z1 = z1.astype(np.int64)
        x2 = x2.astype(np.int64)
        z2 = z2.astype(np.int64)
        # g = 0 when (x1, z1) = (0, 0);  z2*(2*x2-1) when (1,1);
        # z2*(2*z2... ) -- expressed per case below.
        g = np.zeros_like(x1)
        case_xz = (x1 == 1) & (z1 == 1)
        g = np.where(case_xz, z2 - x2, g)
        case_x = (x1 == 1) & (z1 == 0)
        g = np.where(case_x, z2 * (2 * x2 - 1), g)
        case_z = (x1 == 0) & (z1 == 1)
        g = np.where(case_z, x2 * (1 - 2 * z2), g)
        return int(np.sum(g)) % 4

    def _row_multiply(self, target_row: int, source_row: int) -> None:
        """Left-multiply generator ``target_row`` by generator ``source_row``."""
        exponent = (
            2 * int(self._r[source_row])
            + 2 * int(self._r[target_row])
            + self._phase_exponent(
                self._x[source_row],
                self._z[source_row],
                self._x[target_row],
                self._z[target_row],
            )
        ) % 4
        self._r[target_row] = 1 if exponent == 2 else 0
        self._x[target_row] ^= self._x[source_row]
        self._z[target_row] ^= self._z[source_row]

    def _product(
        self,
        scratch_x: np.ndarray,
        scratch_z: np.ndarray,
        scratch_r: int,
        row: int,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Multiply the scratch Pauli by generator ``row`` and return it."""
        exponent = (
            2 * int(self._r[row])
            + 2 * scratch_r
            + self._phase_exponent(self._x[row], self._z[row], scratch_x, scratch_z)
        ) % 4
        new_r = 1 if exponent == 2 else 0
        return scratch_x ^ self._x[row], scratch_z ^ self._z[row], new_r

    def stabilizer_strings(self) -> List[str]:
        """Return the stabilizer generators as signed Pauli strings (for tests)."""
        n = self.num_qubits
        strings = []
        for row in range(n, 2 * n):
            sign = "-" if self._r[row] else "+"
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


def reference_stabilizer_counts(
    circuit: QuantumCircuit,
    shots: int,
    noise_model: Optional[NoiseModel] = None,
    seed: SeedLike = None,
) -> Dict[str, int]:
    """Per-shot reference sampler: one scalar tableau trajectory per shot.

    Every shot replays the compiled program on a fresh
    :class:`StabilizerState`, charging each gate a random Pauli with the
    noise model's gate error and each readout a flip with its measurement
    error (no noise model: an ideal run).  This is the slow, obviously
    correct baseline the shot-batched
    :class:`~repro.simulators.batched_stabilizer.StabilizerSimulator` is
    tested and benchmarked against; seeded runs of the two agree in
    distribution, not shot for shot.
    """
    if shots <= 0:
        raise StabilizerError("shots must be positive")
    rng = ensure_generator(seed)
    noise_model = noise_model or NoiseModel.ideal()
    program = compile_tableau_program(circuit)
    # Pre-resolve the per-step error probabilities so the shot loop only
    # touches plain floats.
    gate_errors = [
        noise_model.gate_error(step.qubits) if step.kind == "gate" else 0.0 for step in program
    ]
    measure_errors = [
        noise_model.measurement_error(step.qubits[0]) if step.kind == "measure" else 0.0
        for step in program
    ]
    width = max(circuit.num_clbits, 1)
    counts: Counter = Counter()
    for _ in range(shots):
        state = StabilizerState(circuit.num_qubits)
        clbits = ["0"] * width
        for index, step in enumerate(program):
            if step.kind == "measure":
                outcome = state.measure(step.qubits[0], rng)
                if measure_errors[index] > 0.0 and rng.random() < measure_errors[index]:
                    outcome ^= 1
                clbits[width - 1 - step.clbit] = str(outcome)
                continue
            if step.kind == "reset":
                state.reset(step.qubits[0], rng)
                continue
            for name in step.primitives:
                state.apply_gate(name, step.qubits)
            if gate_errors[index] > 0.0 and rng.random() < gate_errors[index]:
                if len(step.qubits) == 1:
                    paulis = (_PAULI_LABELS[int(rng.integers(0, 3))],)
                else:
                    paulis = _TWO_QUBIT_PAULIS[int(rng.integers(0, len(_TWO_QUBIT_PAULIS)))]
                for pauli, qubit in zip(paulis, step.qubits):
                    if pauli is not None:
                        state.apply_pauli(pauli, qubit)
        counts["".join(clbits)] += 1
    return dict(counts)
